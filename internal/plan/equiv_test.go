package plan_test

import (
	"context"
	"errors"
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"testing"

	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/kernelgen"
	"frappe/internal/model"
	"frappe/internal/plan"
	"frappe/internal/query"
	"frappe/internal/store"
)

// The paper's figure queries (same text the bench harness uses).
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
	tinySrc  graph.Source
	tinySt   *gstats.Stats
)

// tinyGraph extracts the paper-shaped synthetic kernel once per test
// binary; the figure queries all resolve against it.
func tinyGraph(t *testing.T) (graph.Source, *gstats.Stats) {
	t.Helper()
	tinyOnce.Do(func() {
		w := kernelgen.Generate(kernelgen.Tiny())
		res, err := w.Extract()
		if err != nil {
			panic(err)
		}
		tinySrc = res.Graph
		tinySt = gstats.Collect(res.Graph)
	})
	return tinySrc, tinySt
}

// canon renders a result order-insensitively: Cypher leaves row order
// unspecified without ORDER BY, and the closure rewrite legitimately
// discovers endpoints in BFS rather than DFS order.
func canon(src graph.Source, res *query.Result) string {
	var sb strings.Builder
	sb.WriteString(strings.Join(res.Columns, "\t"))
	sb.WriteByte('\n')
	lines := make([]string, 0, len(res.Rows))
	for _, row := range res.Rows {
		cells := make([]string, len(row))
		for i, v := range row {
			cells[i] = v.Format(src)
		}
		lines = append(lines, strings.Join(cells, "\t"))
	}
	sort.Strings(lines)
	sb.WriteString(strings.Join(lines, "\n"))
	return sb.String()
}

// runBoth executes text on the naive interpreter and through the
// planner and requires byte-identical canonical results (or errors on
// both sides). A naive budget abort where planned execution succeeds is
// the rewrite working as intended (less work under the same budget) and
// is logged, not failed; the reverse — planned aborting where naive
// succeeds — is always a planner regression.
func runBoth(t *testing.T, src graph.Source, st *gstats.Stats, text string, lim query.Limits) {
	t.Helper()
	ctx := context.Background()
	q, err := query.Parse(text)
	if err != nil {
		t.Fatalf("parse %q: %v", text, err)
	}
	naive, nerr := query.ExecuteLimits(ctx, src, q, lim)
	p := plan.Compile(q, st)
	planned, perr := p.Execute(ctx, src, lim)
	if errors.Is(nerr, query.ErrBudgetExceeded) && perr == nil {
		t.Logf("naive budget-aborted where planned succeeded (rewrite win): %q", text)
		return
	}
	if (nerr != nil) != (perr != nil) {
		t.Fatalf("error divergence for %q:\n naive:   %v\n planned: %v\n(plan: %s)", text, nerr, perr, p.Explain())
	}
	if nerr != nil {
		return
	}
	if got, want := canon(src, planned), canon(src, naive); got != want {
		t.Fatalf("result divergence for %q:\nplan:\n%s\nnaive (%d rows):\n%s\nplanned (%d rows):\n%s",
			text, p.Explain(), len(naive.Rows), want, len(planned.Rows), got)
	}
}

func TestFigureQueriesEquivalent(t *testing.T) {
	src, st := tinyGraph(t)
	for name, text := range map[string]string{
		"figure3": figure3Query,
		"figure5": figure5Query,
		// Figure 6 unbudgeted naive enumeration runs for minutes even on
		// the tiny graph (that is the paper's point); the bounded form
		// checks the same rewrite path with a finishable baseline, and
		// TestFigure6PlannedBeatsNaive covers the unbounded behaviour.
		"figure6bounded": strings.Replace(figure6Query, "-[:calls*]->", "-[:calls*..4]->", 1),
	} {
		t.Run(name, func(t *testing.T) {
			runBoth(t, src, st, text, query.Limits{})
		})
	}
}

// TestFigure6PlannedBeatsNaive is the acceptance proof as a unit test:
// under one step budget the naive interpreter aborts on the unbounded
// closure while the planned execution completes.
func TestFigure6PlannedBeatsNaive(t *testing.T) {
	src, st := tinyGraph(t)
	q, err := query.Parse(figure6Query)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Compile(q, st)
	if p.Rewrites != 1 {
		t.Fatalf("figure 6 not rewritten: %s", p.Explain())
	}
	lim := query.Limits{MaxSteps: 2_000_000}
	if _, err := query.ExecuteLimits(context.Background(), src, q, lim); !errors.Is(err, query.ErrBudgetExceeded) {
		t.Fatalf("naive figure 6 finished within %d steps (err=%v); graph too easy for the regression to bite", lim.MaxSteps, err)
	}
	planned, err := p.Execute(context.Background(), src, lim)
	if err != nil {
		t.Fatalf("planned figure 6 under the same budget: %v", err)
	}
	if len(planned.Rows) == 0 {
		t.Fatal("planned figure 6 returned no rows")
	}
	if planned.Steps >= lim.MaxSteps {
		t.Fatalf("planned figure 6 used %d steps, want far under %d", planned.Steps, lim.MaxSteps)
	}
}

// TestDiamondClosureEquivalence pits the rewrite against a graph with
// exponentially many paths but a tiny node set: a chain of diamonds
// (2^12 distinct paths, 49 nodes). Naive enumeration still finishes, so
// unbounded-closure equivalence is checked exactly.
func TestDiamondClosureEquivalence(t *testing.T) {
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
	// A back edge to the root puts the start node on a cycle.
	g.AddEdge(cur, graph.NodeID(0), model.EdgeCalls, nil)
	st := gstats.Collect(g)
	for _, text := range []string{
		`START n=node:node_auto_index('short_name: root') MATCH n -[:calls*]-> m RETURN distinct m`,
		`START n=node:node_auto_index('short_name: root') MATCH n -[:calls*0..]-> m RETURN distinct m`,
		`START n=node:node_auto_index('short_name: root') MATCH n -[:calls*..3]-> m RETURN count(distinct m)`,
		`START n=node:node_auto_index('short_name: root') MATCH n <-[:calls*]- m RETURN distinct m`,
	} {
		runBoth(t, g, st, text, query.Limits{})
	}
}

// TestHandWrittenEquivalence covers the rewrite's edge cases: bounds,
// zero-length, direction, undirectedness, aggregates, predicates,
// OPTIONAL, and shapes that must NOT be rewritten.
func TestHandWrittenEquivalence(t *testing.T) {
	src, st := tinyGraph(t)
	queries := []string{
		// Unbounded closure, label-filtered endpoint.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*]-> (m:function) RETURN distinct m.short_name`,
		// Bounded depth.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..2]-> m RETURN distinct m`,
		// Zero-length minimum.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*0..]-> m RETURN distinct m`,
		// Reverse direction (callers).
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n <-[:calls*]- m RETURN distinct m`,
		// Undirected closure.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..3]- m RETURN distinct m`,
		// Multiple relationship types.
		`START n=node:node_auto_index('short_name: wakeup.elf') MATCH n -[:compiled_from|linked_from*]-> f RETURN distinct f`,
		// Duplication-invariant aggregates.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..3]-> m RETURN count(distinct m)`,
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..3]-> m RETURN min(m.short_name), max(m.short_name)`,
		// Grouped duplication-invariant aggregate.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..3]-> (m:function) RETURN m.short_name, count(distinct m) ORDER BY m.short_name`,
		// NOT rewritten: plain count(*) observes multiplicity.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..3]-> m RETURN count(*)`,
		// NOT rewritten: relationship variable binds the path's edges.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[r:calls*..2]-> m RETURN distinct m`,
		// NOT rewritten: non-distinct projection.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*..2]-> m RETURN m.short_name ORDER BY m.short_name`,
		// NOT rewritten: minimum depth 2.
		`START n=node:node_auto_index('short_name: pci_read_bases') MATCH n -[:calls*2..3]-> m RETURN distinct m`,
		// OPTIONAL MATCH with closure (no match must yield a null row).
		`START n=node:node_auto_index('short_name: pci_read_bases') OPTIONAL MATCH n -[:sets*]-> m RETURN distinct m`,
		// WHERE reachability predicate, both endpoints bound.
		`START a=node:node_auto_index('short_name: sr_media_change'), b=node:node_auto_index('short_name: get_sectorsize') MATCH a -[:calls]-> x WHERE a -[:calls*]-> b RETURN distinct x.short_name`,
		// WHERE reachability predicate, one endpoint bound.
		`START a=node:node_auto_index('short_name: pci_read_bases') MATCH a -[:calls]-> x WHERE x -[:calls*]-> (:function{short_name: 'pci_conf1_read'}) RETURN distinct x.short_name`,
		// Negated reachability.
		`START a=node:node_auto_index('short_name: pci_read_bases') MATCH a -[:calls]-> x WHERE NOT x -[:calls*]-> (:function{short_name: 'pci_conf1_read'}) RETURN distinct x.short_name`,
		// Unbound anchored pattern: planner picks the anchor side.
		`MATCH (f:function) -[:calls]-> (g:function{short_name: 'pci_conf1_read'}) RETURN distinct f.short_name`,
		// Chain with WITH pipeline.
		`MATCH (f:function{short_name: 'pci_read_bases'}) -[:calls*..2]-> g WITH distinct g MATCH g -[:calls]-> h RETURN distinct h.short_name`,
		// Shortest path untouched by the planner.
		`START a=node:node_auto_index('short_name: sr_media_change'), b=node:node_auto_index('short_name: get_sectorsize') MATCH p = shortestPath(a -[:calls*..6]-> b) RETURN length(p)`,
	}
	for i, text := range queries {
		t.Run(fmt.Sprintf("q%02d", i), func(t *testing.T) {
			runBoth(t, src, st, text, query.Limits{MaxSteps: 3_000_000})
		})
	}
}

// TestRandomizedEquivalence fuzzes pattern shapes over a small synthetic
// graph with cycles and skewed degrees (seeded, deterministic).
func TestRandomizedEquivalence(t *testing.T) {
	g := graph.New()
	const n = 36
	rng := rand.New(rand.NewSource(7))
	types := []model.NodeType{model.NodeFunction, model.NodeStruct, model.NodeField}
	ids := make([]graph.NodeID, n)
	for i := 0; i < n; i++ {
		typ := types[rng.Intn(len(types))]
		ids[i] = g.AddNode(typ, graph.P(model.PropShortName, fmt.Sprintf("n%02d", i)))
	}
	etypes := []model.EdgeType{model.EdgeCalls, model.EdgeContains}
	for i := 0; i < 48; i++ {
		g.AddEdge(ids[rng.Intn(n)], ids[rng.Intn(n)], etypes[rng.Intn(len(etypes))], nil)
	}
	st := gstats.Collect(g)

	labels := []string{"", ":function", ":struct", ":field"}
	rels := []string{"-[:calls*]->", "<-[:calls*]-", "-[:calls*..2]->", "-[:calls*0..3]->",
		"-[:calls*]-", "-[:contains*]->", "-[:calls|contains*..3]->", "-[:calls]->", "<-[:contains]-"}
	for i := 0; i < 120; i++ {
		l1, l2 := labels[rng.Intn(len(labels))], labels[rng.Intn(len(labels))]
		rel := rels[rng.Intn(len(rels))]
		var sb strings.Builder
		anchored := rng.Intn(2) == 0
		if anchored {
			fmt.Fprintf(&sb, "START a=node:node_auto_index('short_name: n%02d') MATCH a %s (b%s)", rng.Intn(n), rel, l2)
		} else {
			fmt.Fprintf(&sb, "MATCH (a%s) %s (b%s)", l1, rel, l2)
		}
		if rng.Intn(3) == 0 {
			fmt.Fprintf(&sb, " WHERE a -[:calls*]-> (:struct)")
		}
		switch rng.Intn(3) {
		case 0:
			sb.WriteString(" RETURN distinct b")
		case 1:
			sb.WriteString(" RETURN count(distinct b)")
		case 2:
			sb.WriteString(" RETURN distinct a.short_name, b.short_name")
		}
		text := sb.String()
		t.Run(fmt.Sprintf("r%03d", i), func(t *testing.T) {
			runBoth(t, g, st, text, query.Limits{MaxSteps: 2_000_000})
		})
	}
}

// TestBudgetParity: budgets and cancellation abort planned execution
// exactly like the interpreter.
func TestBudgetParity(t *testing.T) {
	src, st := tinyGraph(t)
	q, err := query.Parse(figure6Query)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Compile(q, st)

	for _, lim := range []query.Limits{{MaxSteps: 1}, {MaxRows: 1}} {
		_, nerr := query.ExecuteLimits(context.Background(), src, q, lim)
		_, perr := p.Execute(context.Background(), src, lim)
		if !errors.Is(nerr, query.ErrBudgetExceeded) || !errors.Is(perr, query.ErrBudgetExceeded) {
			t.Fatalf("limits %+v: naive err %v, planned err %v; want budget aborts on both", lim, nerr, perr)
		}
	}

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, err := p.Execute(ctx, src, query.Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("planned execution on cancelled ctx: %v, want context.Canceled", err)
	}
	if _, err := query.ExecuteLimits(ctx, src, q, query.Limits{}); !errors.Is(err, context.Canceled) {
		t.Fatalf("naive execution on cancelled ctx: %v, want context.Canceled", err)
	}
}

// TestConcurrentPlanExecution: one compiled plan shared across
// goroutines must be race-free (plans are immutable; state lives in the
// per-run Env).
func TestConcurrentPlanExecution(t *testing.T) {
	src, st := tinyGraph(t)
	q, err := query.Parse(figure6Query)
	if err != nil {
		t.Fatal(err)
	}
	p := plan.Compile(q, st)
	want, err := p.Execute(context.Background(), src, query.Limits{})
	if err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for j := 0; j < 10; j++ {
				res, err := p.Execute(context.Background(), src, query.Limits{})
				if err != nil || len(res.Rows) != len(want.Rows) {
					t.Errorf("concurrent execute: err=%v rows=%d want %d", err, len(res.Rows), len(want.Rows))
					return
				}
			}
		}()
	}
	wg.Wait()
}

// whereCases filter MATCH bindings on the auto-indexed keys: the shapes
// a console sends, with the WHERE forms whose rows depend on how the
// executor binds, keeps and restores variables across patterns, WITH
// and OPTIONAL MATCH.
var whereCases = []string{
	// Equality at a non-zero pattern position (perfbench's revscan) and
	// on a single-node pattern, literal on either side.
	`MATCH (a:function) -[:calls]-> b WHERE b.short_name = 'printk' RETURN a.short_name`,
	`MATCH (f:function) WHERE 'sr_media_change' = f.short_name RETURN f.short_name, f.long_name`,
	// Conjunctions, a wildcard, TYPE (the node's concrete type).
	`MATCH (a:function) -[:calls]-> (b:function) WHERE a.short_name <> 'x' AND b.name = 'printk' AND a.short_name =~ 's*' RETURN a.short_name, b.short_name`,
	`MATCH (s) -[:contains]-> f WHERE s.type = 'struct' AND f.short_name = 'cmd' RETURN s.short_name`,
	// Trailing and interior wildcards (perfbench's scan-stream).
	`MATCH (f:function) WHERE f.short_name =~ 'pci_l1*' RETURN f.short_name, f.long_name`,
	`MATCH (f:function) WHERE f.short_name =~ 'pci_l1?_n*' RETURN f.short_name`,
	`MATCH (a:function) -[:calls]-> (f:function) WHERE f.long_name =~ 'sr_*(int)' RETURN a.short_name, f.short_name`,
	// A missing value, and a property most nodes lack.
	`MATCH (a:function) -[:calls]-> b WHERE b.short_name = 'no_such_fn' RETURN a.short_name`,
	`MATCH (a) -[:calls]-> b WHERE b.name = 'printk' RETURN a.short_name`,
	// OR-, NOT- and XOR-wrapped predicates.
	`MATCH (a:function) -[:calls]-> b WHERE b.short_name = 'printk' OR a.short_name = 'panic' RETURN a.short_name, b.short_name`,
	`MATCH (a:function) -[:calls]-> (b:function) WHERE NOT b.short_name = 'printk' RETURN count(*)`,
	`MATCH (f:function) WHERE NOT (f.short_name =~ 'pci_*') RETURN count(*)`,
	`MATCH (f:function) WHERE f.short_name = 'printk' XOR f.short_name = 'panic' RETURN f.short_name`,
	// Non-string literals and a leading wildcard.
	`MATCH (f) WHERE f.short_name = 5 RETURN f`,
	`MATCH (f) WHERE f.short_name =~ 5 RETURN f`,
	`MATCH (f:function) WHERE f.short_name =~ '*_init' RETURN f.short_name`,
	// A variable bound by START or an earlier MATCH.
	`START b=node:node_auto_index('short_name: panic') MATCH (a:function) -[:calls]-> b WHERE b.short_name = 'printk' RETURN a.short_name`,
	`START b=node:node_auto_index('short_name: printk') MATCH (a:function) -[:calls]-> b WHERE b.short_name = 'printk' RETURN a.short_name`,
	`MATCH (b:function{short_name: 'panic'}) MATCH (a:function) -[:calls]-> b WHERE b.short_name =~ 'pan*' RETURN a.short_name`,
	// A WHERE after a WITH that renames the variable.
	`MATCH (a:function) WITH a AS b WHERE b.short_name = 'printk' RETURN b.short_name`,
	`MATCH (a:function) -[:calls]-> (c) WITH c AS b, a WHERE b.short_name = 'panic' RETURN a.short_name`,
	// OPTIONAL MATCH: its WHERE filters the padded rows too.
	`START a=node:node_auto_index('short_name: printk') OPTIONAL MATCH (b:function) WHERE b.short_name = 'panic' RETURN a.short_name, b.short_name`,
	// A path binding and a pattern predicate binding a fresh variable.
	`MATCH p = (a:function{short_name: 'sr_media_change'}) -[:calls*..2]-> (b) WHERE b.short_name =~ 'sr_*' RETURN length(p), b.short_name`,
	`MATCH (a:function) -[:calls]-> (b:function{short_name: 'printk'}) WHERE a -[:calls]-> (c:function{short_name: 'panic'}) RETURN a.short_name ORDER BY a.short_name`,
}

// storeOf writes src to a store under t's temporary directory and opens
// it.
func storeOf(t *testing.T, src graph.Source) *store.DB {
	t.Helper()
	dir := filepath.Join(t.TempDir(), "db")
	if err := store.Write(dir, src.(*graph.Graph)); err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { db.Close() })
	return db
}

// TestWherePredicateEquivalence: each WHERE case runs naively and
// planned over the in-memory graph and over the same graph written to a
// store, and the four answers must agree.
func TestWherePredicateEquivalence(t *testing.T) {
	src, st := tinyGraph(t)
	db := storeOf(t, src)
	for i, text := range whereCases {
		t.Run(fmt.Sprintf("w%02d", i), func(t *testing.T) {
			runBoth(t, src, st, text, query.Limits{MaxSteps: 3_000_000})
			runBoth(t, db, st, text, query.Limits{MaxSteps: 3_000_000})
			q, err := query.Parse(text)
			if err != nil {
				t.Fatal(err)
			}
			p := plan.Compile(q, st)
			mem, err := p.Execute(context.Background(), src, query.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			disk, err := p.Execute(context.Background(), db, query.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if canon(src, mem) != canon(db, disk) {
				t.Fatalf("memory and store answers differ for %q", text)
			}
		})
	}
}

// TestIndexWildcardMatchesWhere: a wildcard term of the auto-index (a
// prefix range, filtered when the wildcard is not one trailing '*')
// finds exactly the nodes a WHERE =~ scan keeps, on both sources.
func TestIndexWildcardMatchesWhere(t *testing.T) {
	src, _ := tinyGraph(t)
	db := storeOf(t, src)
	for _, pat := range []string{"pci_l1*", "pci_l1?_n*", "pci_l*_n2", "sr_*", "s?_*", "printk*", "no_such*", "*_init", "?rintk", "wakeup.elf*"} {
		for _, key := range []string{"short_name", "long_name", "name"} {
			seek := fmt.Sprintf(`START n=node:node_auto_index('%s: "%s"') RETURN n`, key, pat)
			scan := fmt.Sprintf(`MATCH (n) WHERE n.%s =~ '%s' RETURN n`, key, pat)
			for _, s := range []graph.Source{src, db} {
				a, err := query.Run(context.Background(), s, seek)
				if err != nil {
					t.Fatal(err)
				}
				b, err := query.Run(context.Background(), s, scan)
				if err != nil {
					t.Fatal(err)
				}
				if canon(s, a) != canon(s, b) {
					t.Fatalf("%s: index finds\n%s\nthe scan keeps\n%s", seek, canon(s, a), canon(s, b))
				}
			}
		}
	}
}
