package gstats

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"

	"frappe/internal/extract"
	"frappe/internal/kernelgen"
)

// TestCollectGoldenScale1 pins Collect's persisted form on the kernelgen
// scale-1 graph: gstats.json must stay byte-identical whatever the
// collection strategy.
func TestCollectGoldenScale1(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Scaled(1))
	res, err := extract.Run(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	got, err := json.MarshalIndent(Collect(res.Graph), "", "  ")
	if err != nil {
		t.Fatal(err)
	}
	golden := filepath.Join("testdata", "collect_scale1.json")
	want, err := os.ReadFile(golden)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Fatalf("Collect at scale 1 differs from %s (%d vs %d bytes)", golden, len(got), len(want))
	}
}
