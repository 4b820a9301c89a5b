// Package coord_test holds the serving-path equivalence suites. Every
// store is served by one core.Engine over one persisted store; these
// suites prove that path — Write → Open → CachedQuery/StreamQuery —
// answers byte-identically to planned execution over the in-memory
// graph. "shards" in a subtest name is the page cache's lock-stripe
// count (store.Options.CacheShards): striping decides which lock guards
// a cached page and must never change a byte of output.
//
// The directory holds tests only; it keeps the suites' historical
// package path so their names stay stable.
package coord_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"frappe/internal/core"
	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/kernelgen"
	"frappe/internal/model"
	"frappe/internal/plan"
	"frappe/internal/query"
	"frappe/internal/store"
)

// The paper's figure queries (same text plan/equiv_test.go checks
// against the naive interpreter; here they prove the disk-backed engine
// equals planned execution over the in-memory graph).
const (
	figure3Query = `
START m=node:node_auto_index('short_name: wakeup.elf')
MATCH m -[:compiled_from|linked_from*]-> f
WITH distinct f
MATCH f -[:file_contains]-> (n:field{short_name: 'id'})
RETURN distinct n`

	figure5Query = `
START from=node:node_auto_index('short_name: sr_media_change'),
      to=node:node_auto_index('short_name: get_sectorsize'),
      b=node:node_auto_index('short_name: packet_command')
MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) <-[:contains]- b
WITH to, from, writer, write
MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to
WHERE r.use_start_line >= s.use_start_line AND direct -[:calls*]-> writer
RETURN distinct writer, write.use_start_line`

	figure6Query = `
START n=node:node_auto_index('short_name: pci_read_bases')
MATCH n -[:calls*]-> m
RETURN distinct m`
)

var (
	tinyOnce sync.Once
	tinyG    *graph.Graph
)

func tinyGraph(t *testing.T) *graph.Graph {
	t.Helper()
	tinyOnce.Do(func() {
		w := kernelgen.Generate(kernelgen.Tiny())
		res, err := w.Extract()
		if err != nil {
			panic(err)
		}
		tinyG = res.Graph
	})
	return tinyG
}

// openEngine persists g in a temp dir and opens a disk-backed engine
// over it with the page cache split into stripes lock stripes — the
// full round trip every production query takes. Small pages spread each
// store file over many stripes, and a small cache forces evictions, so
// every suite reloads pages through every stripe.
func openEngine(t *testing.T, g *graph.Graph, stripes int) *core.Engine {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	if err := store.Write(dir, g); err != nil {
		t.Fatalf("store.Write: %v", err)
	}
	e, err := core.OpenOptions(dir, core.Options{Store: store.Options{PageSize: 256, CacheShards: stripes, CachePages: 16}})
	if err != nil {
		t.Fatalf("core.OpenOptions: %v", err)
	}
	t.Cleanup(func() { e.Close() })
	return e
}

// render formats a result preserving row order: the disk-backed engine
// must reproduce the exact in-memory order, not merely the same set.
func render(src graph.Source, cols []string, rows [][]query.Val) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(cols, "\t"))
	for _, row := range rows {
		sb.WriteByte('\n')
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.Format(src)
		}
		sb.WriteString(strings.Join(cells, "\t"))
	}
	return sb.String()
}

// runEquiv compares the disk-backed engine against a planned execution
// of the same text over the in-memory graph: byte-identical rows
// (materialized AND streamed), matching error classes, and — when no
// LIMIT lets execution stop early — identical step totals.
func runEquiv(t *testing.T, g *graph.Graph, e *core.Engine, text string, lim query.Limits) {
	t.Helper()
	ctx := context.Background()
	e.QueryLimits = lim

	q, err := query.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	pl := plan.Compile(q, gstats.Collect(g))
	base, berr := pl.Execute(ctx, g, lim)

	snap := e.Snapshot()
	got, _, gerr := e.CachedQuery(ctx, snap, text, true)
	if (berr != nil) != (gerr != nil) {
		t.Fatalf("error divergence for %q:\n memory: %v\n store:  %v", text, berr, gerr)
	}
	if berr != nil {
		if errors.Is(berr, query.ErrBudgetExceeded) != errors.Is(gerr, query.ErrBudgetExceeded) {
			t.Fatalf("budget class divergence for %q: memory %v, store %v", text, berr, gerr)
		}
		return
	}
	src := snap.Source()
	want := render(g, base.Columns, base.Rows)
	if have := render(src, got.Columns, got.Rows); have != want {
		t.Fatalf("materialized divergence for %q:\nmemory (%d rows):\n%s\nstore (%d rows):\n%s",
			text, len(base.Rows), want, len(got.Rows), have)
	}
	hasLimit := strings.Contains(strings.ToUpper(text), "LIMIT")
	if !hasLimit && got.Steps != base.Steps {
		t.Fatalf("step divergence for %q: memory %d, store %d", text, base.Steps, got.Steps)
	}

	st, _, serr := e.StreamQuery(ctx, snap, text, 0)
	if serr != nil {
		t.Fatalf("StreamQuery(%q): %v", text, serr)
	}
	cols, err := st.Columns(ctx)
	if err != nil {
		t.Fatalf("stream columns for %q: %v", text, err)
	}
	var rows [][]query.Val
	for row := range st.Rows() {
		rows = append(rows, row)
	}
	if _, _, err := st.Wait(); err != nil {
		t.Fatalf("stream for %q: %v", text, err)
	}
	if have := render(src, cols, rows); have != want {
		t.Fatalf("streamed divergence for %q:\nmemory:\n%s\nstreamed (%d rows):\n%s", text, want, len(rows), have)
	}
}

// tinyQueries covers the planner's shapes on the paper-shaped graph:
// START/closure shapes, indexed anchors, unbound label scans, pipelines
// and LIMIT truncation.
var tinyQueries = []struct {
	name string
	text string
}{
	{"figure3", figure3Query},
	{"figure5", figure5Query},
	{"figure6", figure6Query},
	{"figure6bounded", strings.Replace(figure6Query, "-[:calls*]->", "-[:calls*..4]->", 1)},
	{"scatter_scan", `MATCH (n:function) -[:calls]-> m RETURN n.short_name, m.short_name`},
	{"scatter_files", `MATCH (f:file) -[:file_contains]-> (n:function) RETURN f.short_name, n.short_name`},
	{"scatter_where", `MATCH (a:function) -[:calls]-> b WHERE b.short_name = 'pci_conf1_read' RETURN a.short_name`},
	{"scatter_pipeline", `MATCH (f:function{short_name: 'pci_read_bases'}) -[:calls]-> g MATCH g -[:calls]-> h RETURN g.short_name, h.short_name`},
	{"fastpath_reverse", `MATCH (f:function) -[:calls]-> (g:function{short_name: 'pci_conf1_read'}) RETURN f.short_name`},
	{"fastpath_anchor", `MATCH (n:function{short_name: 'pci_read_bases'}) -[:calls]-> m RETURN m.short_name`},
	{"limit", `MATCH (n:function) RETURN n.short_name LIMIT 7`},
	{"limit_scan", `MATCH (n:function) -[:calls]-> m RETURN n.short_name, m.short_name LIMIT 3`},
	{"distinct_direct", `MATCH (n:function) -[:calls]-> m RETURN distinct m.short_name ORDER BY m.short_name`},
}

func TestShardedFigureEquivalence(t *testing.T) {
	g := tinyGraph(t)
	for _, shards := range []int{2, 3, 7} {
		e := openEngine(t, g, shards)
		for _, tc := range tinyQueries {
			t.Run(fmt.Sprintf("shards=%d/%s", shards, tc.name), func(t *testing.T) {
				runEquiv(t, g, e, tc.text, query.Limits{MaxSteps: 10_000_000})
			})
		}
	}
}

// TestDiamondClosureAcrossShards runs closures on a worst-case
// path-multiplicity graph: a 12-diamond chain (2^12 paths, 49 nodes)
// with a back edge, so every closure must deduplicate exponentially
// many paths and terminate on the cycle.
func TestDiamondClosureAcrossShards(t *testing.T) {
	g := graph.New()
	cur := g.AddNode(model.NodeFunction, graph.P(model.PropShortName, "root"))
	for i := 0; i < 12; i++ {
		a := g.AddNode(model.NodeFunction, nil)
		b := g.AddNode(model.NodeFunction, nil)
		join := g.AddNode(model.NodeFunction, nil)
		g.AddEdge(cur, a, model.EdgeCalls, nil)
		g.AddEdge(cur, b, model.EdgeCalls, nil)
		g.AddEdge(a, join, model.EdgeCalls, nil)
		g.AddEdge(b, join, model.EdgeCalls, nil)
		cur = join
	}
	g.AddEdge(cur, graph.NodeID(0), model.EdgeCalls, nil)

	for _, shards := range []int{2, 3, 5} {
		e := openEngine(t, g, shards)
		for i, text := range []string{
			`START n=node:node_auto_index('short_name: root') MATCH n -[:calls*]-> m RETURN distinct m`,
			`START n=node:node_auto_index('short_name: root') MATCH n -[:calls*0..]-> m RETURN distinct m`,
			`START n=node:node_auto_index('short_name: root') MATCH n -[:calls*..3]-> m RETURN count(distinct m)`,
			`START n=node:node_auto_index('short_name: root') MATCH n <-[:calls*]- m RETURN distinct m`,
			`MATCH (n:function) -[:calls]-> m RETURN n.short_name`,
		} {
			t.Run(fmt.Sprintf("shards=%d/q%d", shards, i), func(t *testing.T) {
				runEquiv(t, g, e, text, query.Limits{})
			})
		}
	}
}

// TestRandomizedShardedEquivalence fuzzes mixed anchored/scan shapes
// over a seeded random graph with no file structure: call and contains
// edges join arbitrary nodes, so record chains interleave across pages.
func TestRandomizedShardedEquivalence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	g := graph.New()
	const n = 36
	types := []model.NodeType{model.NodeFunction, model.NodeStruct, model.NodeField}
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		ids[i] = g.AddNode(types[rng.Intn(len(types))], graph.P(model.PropShortName, fmt.Sprintf("n%02d", i)))
	}
	etypes := []model.EdgeType{model.EdgeCalls, model.EdgeContains}
	for i := 0; i < 48; i++ {
		g.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], etypes[rng.Intn(len(etypes))], nil)
	}

	labels := []string{"", ":function", ":struct", ":field"}
	rels := []string{"-[:calls*]->", "<-[:calls*]-", "-[:calls*..2]->", "-[:calls*0..3]->",
		"-[:calls]->", "<-[:contains]-", "-[:calls|contains*..3]->"}
	for _, shards := range []int{3, 5} {
		e := openEngine(t, g, shards)
		for i := 0; i < 60; i++ {
			l1, l2 := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
			rel := rels[rng.Intn(len(rels))]
			var sb strings.Builder
			if rng.Intn(2) == 0 {
				fmt.Fprintf(&sb, "START a=node:node_auto_index('short_name: n%02d') MATCH a %s (b%s)", rng.Intn(n), rel, l2)
			} else {
				fmt.Fprintf(&sb, "MATCH (a%s) %s (b%s)", l1, rel, l2)
			}
			switch rng.Intn(3) {
			case 0:
				sb.WriteString(" RETURN distinct b")
			case 1:
				sb.WriteString(" RETURN count(distinct b)")
			case 2:
				sb.WriteString(" RETURN a.short_name, b.short_name")
			}
			text := sb.String()
			t.Run(fmt.Sprintf("shards=%d/r%03d", shards, i), func(t *testing.T) {
				runEquiv(t, g, e, text, query.Limits{MaxSteps: 2_000_000})
			})
		}
	}
}

// TestShardedBudgetParity: the disk-backed engine's step/row budget
// must abort both materialized and streamed execution, and cancellation
// must surface as context.Canceled — for scan and closure shapes.
func TestShardedBudgetParity(t *testing.T) {
	g := tinyGraph(t)
	e := openEngine(t, g, 3)
	ctx := context.Background()
	for _, text := range []string{
		`MATCH (n:function) -[:calls]-> m RETURN n.short_name, m.short_name`, // label scan
		figure6Query, // closure rewrite
	} {
		for _, lim := range []query.Limits{{MaxSteps: 1}, {MaxRows: 1}} {
			e.QueryLimits = lim
			if _, _, err := e.CachedQuery(ctx, e.Snapshot(), text, true); !errors.Is(err, query.ErrBudgetExceeded) {
				t.Fatalf("limits %+v on %q: err %v, want budget abort", lim, text, err)
			}
			st, _, err := e.StreamQuery(ctx, e.Snapshot(), text, 0)
			if err != nil {
				t.Fatalf("StreamQuery under %+v: %v", lim, err)
			}
			for range st.Rows() {
			}
			if _, _, err := st.Wait(); !errors.Is(err, query.ErrBudgetExceeded) {
				t.Fatalf("streamed limits %+v on %q: err %v, want budget abort", lim, text, err)
			}
		}

		e.QueryLimits = query.Limits{}
		cctx, cancel := context.WithCancel(ctx)
		cancel()
		if _, _, err := e.CachedQuery(cctx, e.Snapshot(), text, true); !errors.Is(err, context.Canceled) {
			t.Fatalf("cancelled ctx on %q: err %v, want context.Canceled", text, err)
		}
	}
}

// TestShardedBudgetMatchesSingleEngine pins the exact abort point: with
// the budget set one step below what the in-memory execution needs, the
// disk-backed engine aborts; with the exact budget, it succeeds.
func TestShardedBudgetMatchesSingleEngine(t *testing.T) {
	g := tinyGraph(t)
	e := openEngine(t, g, 3)
	ctx := context.Background()
	text := `MATCH (f:file) -[:file_contains]-> (n:function) RETURN f.short_name, n.short_name`

	q, err := query.Parse(text)
	if err != nil {
		t.Fatal(err)
	}
	pl := plan.Compile(q, gstats.Collect(g))
	base, err := pl.Execute(ctx, g, query.Limits{})
	if err != nil {
		t.Fatal(err)
	}

	e.QueryLimits = query.Limits{MaxSteps: base.Steps}
	if _, _, err := e.CachedQuery(ctx, e.Snapshot(), text, true); err != nil {
		t.Fatalf("exact budget %d: %v", base.Steps, err)
	}
	e.QueryLimits = query.Limits{MaxSteps: base.Steps - 1}
	if _, _, err := e.CachedQuery(ctx, e.Snapshot(), text, true); !errors.Is(err, query.ErrBudgetExceeded) {
		t.Fatalf("budget %d: err %v, want budget abort", base.Steps-1, err)
	}
}
