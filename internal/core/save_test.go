package core

import (
	"context"
	"path/filepath"
	"testing"

	"frappe/internal/gstats"
	"frappe/internal/kernelgen"
)

// TestSaveStagesStatistics: a store written by Engine.Save carries its
// planner statistics, so the engine that opens it plans the first cold
// query from them instead of scanning the store to collect them.
func TestSaveStagesStatistics(t *testing.T) {
	res, err := kernelgen.Generate(kernelgen.Tiny()).Extract()
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := FromGraph(res.Graph).Save(dir); err != nil {
		t.Fatal(err)
	}
	saved, ok, err := gstats.Load(dir)
	if err != nil || !ok {
		t.Fatalf("saved store has no %s (ok=%v, err=%v)", gstats.FileName, ok, err)
	}
	if saved.Nodes != int64(res.Graph.NodeCount()) || saved.Edges != int64(res.Graph.EdgeCount()) {
		t.Fatalf("saved statistics count %d nodes, %d edges; graph has %d, %d",
			saved.Nodes, saved.Edges, res.Graph.NodeCount(), res.Graph.EdgeCount())
	}

	disk, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer disk.Close()
	snap := disk.Snapshot()
	loaded := snap.gs.st
	if loaded == nil {
		t.Fatal("opened store has no statistics: the first query would scan the store for them")
	}
	disk.DropCaches()
	fig3 := `START m=node:node_auto_index('short_name: wakeup.elf')
MATCH m -[:compiled_from|linked_from*]-> f
WITH distinct f
MATCH f -[:file_contains]-> (n:field{short_name: 'id'})
RETURN distinct n`
	if _, err := disk.Query(context.Background(), fig3); err != nil {
		t.Fatal(err)
	}
	if snap.GraphStats() != loaded {
		t.Fatal("the first cold Figure 3 run replaced the loaded statistics with a collected set")
	}
}
