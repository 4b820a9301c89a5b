package store

import (
	"crypto/sha256"
	"encoding/hex"
	"os"
	"path/filepath"
	"testing"

	"frappe/internal/extract"
	"frappe/internal/kernelgen"
)

// scale1Digests are the SHA-256 digests of every file Write produces for
// the kernelgen scale-1 graph. They pin the store format byte for byte:
// a change to how the writer walks the graph (key-ID order, record
// layout, string interning) must leave every file identical.
var scale1Digests = map[string]string{
	"neostore.index.db":                 "7157bf491a723a4f5f98ca07073c090a5617dd2759c509a2cd97e664e66eae2d",
	"neostore.index.db.crc":             "5f566bdf90ba5272ec3d8cd4b9f8438a8460acc60e2944fd07d4b7c031d260fb",
	"neostore.keystore.db":              "d21eae017bf911653156432419be1ed0a88e6746608110a4d5f519123d5b626c",
	"neostore.keystore.db.crc":          "bbc4a300a803ec324e373d4d2cb9af2d87df3c2591605751547960a6d5eb82e4",
	"neostore.meta.db":                  "646e7e2ae9673426f25b37f7ad211b3c8afe5fd5807a052fc7bf7d3e58faae87",
	"neostore.nodestore.db":             "c75e9e044062746302eea04727851efff7d6cebf4a85d8d714c2dd9447c2a368",
	"neostore.nodestore.db.crc":         "0fa406bdbefce30ac1aa7348339e85b2824af9094235dc4e5ea67b4119c27639",
	"neostore.propertystore.db":         "fb84ef6a835d11705dcfbec57c99091150192055d4beb574d0269ff60459e6cb",
	"neostore.propertystore.db.crc":     "bdb0d047413285fd1b5d0628cf573b495478702fdc452d98aaef6c9e175b409e",
	"neostore.relationshipstore.db":     "05409fca1c0e743e65900f3bb3c5ff43fdfb98bb53a615098dcec56b34c2d7d5",
	"neostore.relationshipstore.db.crc": "bd1dadfe84edc97c477201307c02761a074705742766385ef14df7ebdbd62b31",
	"neostore.stringstore.db":           "c778baa99543457585a0a44567715958f7f21c5dd67dd4cb9cfb3df80beafc22",
	"neostore.stringstore.db.crc":       "ee377aec59012a12a447d01eac589872ab8ca86107daeb30fbdbdbf649b0b24e",
}

// TestStoreBytesGoldenScale1 writes the kernelgen scale-1 store and
// compares every file against scale1Digests.
func TestStoreBytesGoldenScale1(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Scaled(1))
	res, err := extract.Run(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := Write(dir, res.Graph); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	got := map[string]string{}
	for _, e := range entries {
		if !IsStoreFile(e.Name()) {
			continue
		}
		b, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		sum := sha256.Sum256(b)
		got[e.Name()] = hex.EncodeToString(sum[:])
	}
	for name, want := range scale1Digests {
		if got[name] != want {
			t.Errorf("%s: sha256 %s, want %s", name, got[name], want)
		}
	}
	if len(got) != len(scale1Digests) {
		t.Errorf("store has %d files, want %d", len(got), len(scale1Digests))
	}
}
