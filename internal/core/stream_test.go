package core

import (
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"frappe/internal/graph"
	"frappe/internal/kernelgen"
	"frappe/internal/plan"
	"frappe/internal/query"
)

// bulkCallScan enumerates every call edge with both names: the largest
// result the synthetic kernel produces without DISTINCT.
const bulkCallScan = `MATCH (f:function) -[:calls]-> (g:function) RETURN f.short_name, g.short_name`

// countingSource counts a producer's graph reads: the pattern
// expansions and property fetches its steps are made of.
type countingSource struct {
	graph.Source
	reads atomic.Int64
}

func (c *countingSource) Out(id graph.NodeID) []graph.EdgeID {
	c.reads.Add(1)
	return c.Source.Out(id)
}

func (c *countingSource) NodeProp(id graph.NodeID, key string) (graph.Value, bool) {
	c.reads.Add(1)
	return c.Source.NodeProp(id, key)
}

// formatRows renders rows as tab-joined formatted cells.
func formatRows(src graph.Source, rows [][]query.Val) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		cells := make([]string, len(row))
		for j, v := range row {
			cells[j] = v.Format(src)
		}
		out[i] = strings.Join(cells, "\t")
	}
	return out
}

// TestStreamOnScaleOneDisk serves the scale-1 synthetic kernel from
// disk. Streamed rows equal materialized rows in order, and a consumer
// that stalls holds the producer to the channel window: it stops
// reading the graph until the consumer reads again.
func TestStreamOnScaleOneDisk(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Default())
	mem, errs, err := Index(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	for _, x := range errs {
		t.Fatalf("extract error: %v", x)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := mem.Save(dir); err != nil {
		t.Fatal(err)
	}
	eng, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer eng.Close()

	var bulk []string
	t.Run("identity", func(t *testing.T) {
		for name, text := range map[string]string{
			"figure3": `START m=node:node_auto_index('short_name: wakeup.elf')
MATCH m -[:compiled_from|linked_from*]-> f WITH distinct f
MATCH f -[:file_contains]-> (n:field{short_name: 'id'}) RETURN distinct n`,
			"figure6": `START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*]-> m RETURN distinct m`,
			"bulk":    bulkCallScan,
		} {
			snap := eng.Snapshot()
			res, err := eng.Query(ctx, text)
			if err != nil {
				t.Fatalf("%s materialized: %v", name, err)
			}
			st, _, err := eng.StreamQuery(ctx, snap, text, 0)
			if err != nil {
				t.Fatalf("%s streamed: %v", name, err)
			}
			if _, err := st.Columns(ctx); err != nil {
				t.Fatalf("%s streamed: %v", name, err)
			}
			var rows [][]query.Val
			for row := range st.Rows() {
				rows = append(rows, row)
			}
			if _, _, err := st.Wait(); err != nil {
				t.Fatalf("%s streamed: %v", name, err)
			}
			got, want := formatRows(snap.Source(), rows), formatRows(snap.Source(), res.Rows)
			if len(want) == 0 || strings.Join(got, "\n") != strings.Join(want, "\n") {
				t.Fatalf("%s: streamed %d rows, materialized %d, or their order differs", name, len(got), len(want))
			}
			if name == "bulk" {
				bulk = want
			}
		}
	})

	t.Run("bounded window", func(t *testing.T) {
		if len(bulk) < 10*query.DefaultStreamDepth {
			t.Fatalf("bulk scan has %d rows, too few to show a window of %d", len(bulk), query.DefaultStreamDepth)
		}
		src := &countingSource{Source: eng.Source()}
		q, err := query.Parse(bulkCallScan)
		if err != nil {
			t.Fatal(err)
		}
		st := plan.Compile(q, eng.GraphStats()).Stream(ctx, src, query.Limits{}, 0)
		if _, err := st.Columns(ctx); err != nil {
			t.Fatal(err)
		}
		// Stall: read nothing until the producer has filled the window
		// (or, were the channel unbounded, until it has finished).
		rows := st.Rows()
		for deadline := time.Now().Add(10 * time.Second); len(rows) < query.DefaultStreamDepth && time.Now().Before(deadline); {
			time.Sleep(time.Millisecond)
		}
		// Let it block on the full channel: wait until its read count
		// holds still across several consecutive intervals.
		for last, still, deadline := src.reads.Load(), 0, time.Now().Add(10*time.Second); still < 5; {
			if time.Now().After(deadline) {
				t.Fatal("producer never stopped reading the graph while the consumer stalled")
			}
			time.Sleep(10 * time.Millisecond)
			if n := src.reads.Load(); n == last {
				still++
			} else {
				last, still = n, 0
			}
		}
		if ahead := len(rows); ahead > query.DefaultStreamDepth {
			t.Fatalf("producer ran %d rows ahead of a stalled consumer, want <= %d", ahead, query.DefaultStreamDepth)
		}
		stalled := src.reads.Load()
		time.Sleep(100 * time.Millisecond)
		if n := src.reads.Load(); n != stalled {
			t.Fatalf("producer made %d graph reads while the consumer stalled, want 0", n-stalled)
		}

		got := []string{formatRows(eng.Source(), [][]query.Val{<-rows})[0]}
		for deadline := time.Now().Add(10 * time.Second); src.reads.Load() == stalled; {
			if time.Now().After(deadline) {
				t.Fatal("producer did not resume after the consumer read")
			}
			time.Sleep(time.Millisecond)
		}
		for row := range rows {
			got = append(got, formatRows(eng.Source(), [][]query.Val{row})[0])
		}
		if _, _, err := st.Wait(); err != nil {
			t.Fatal(err)
		}
		if strings.Join(got, "\n") != strings.Join(bulk, "\n") {
			t.Fatalf("stalled stream delivered %d rows, materialized %d, or their order differs", len(got), len(bulk))
		}
	})
}
