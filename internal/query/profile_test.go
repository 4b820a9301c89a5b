package query

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// TestProfileFigureQueries profiles every paper query family (Figures
// 3-6) and checks the trace's accounting invariants: one operator per
// clause, dbHits sum to the executor's step count, and the final
// operator's rows equal the result's.
func TestProfileFigureQueries(t *testing.T) {
	f := buildFixture()
	for name, text := range map[string]string{
		"figure3": figure3Query,
		"figure4": figure4Query,
		"figure5": figure5Query,
		"figure6": figure6Query,
	} {
		t.Run(name, func(t *testing.T) {
			res, prof, err := RunProfile(context.Background(), f.g, text, Limits{})
			if err != nil {
				t.Fatal(err)
			}
			if prof == nil || len(prof.Ops) == 0 {
				t.Fatal("no profile")
			}
			q, _ := Parse(text)
			if len(prof.Ops) != len(q.Clauses) {
				t.Fatalf("%d operators for %d clauses", len(prof.Ops), len(q.Clauses))
			}
			var hits int64
			for _, op := range prof.Ops {
				hits += op.DBHits
				if op.Operator == "?" || op.Rows < 0 {
					t.Fatalf("bad operator %+v", op)
				}
			}
			if hits != prof.Steps || prof.Steps != res.Steps {
				t.Fatalf("dbHits sum %d, profile steps %d, result steps %d — must agree", hits, prof.Steps, res.Steps)
			}
			last := prof.Ops[len(prof.Ops)-1]
			if last.Operator != "Return" || last.Rows != int64(len(res.Rows)) || prof.Rows != last.Rows {
				t.Fatalf("final operator %+v vs %d result rows", last, len(res.Rows))
			}
		})
	}
}

// TestProfileMatchesUnprofiledResult demands PROFILE changes nothing
// about the answer.
func TestProfileMatchesUnprofiledResult(t *testing.T) {
	f := buildFixture()
	plain, err := Run(context.Background(), f.g, figure5Query)
	if err != nil {
		t.Fatal(err)
	}
	prof, _, err := RunProfile(context.Background(), f.g, figure5Query, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	if keyOf(plain) != keyOf(prof) {
		t.Fatalf("profiled result differs:\n%s\nvs\n%s", keyOf(plain), keyOf(prof))
	}
	if plain.Steps != prof.Steps {
		t.Fatalf("steps differ: %d vs %d", plain.Steps, prof.Steps)
	}
}

// TestProfileDetailRendering pins the operator naming and clause
// rendering the console and CLI display.
func TestProfileDetailRendering(t *testing.T) {
	f := buildFixture()
	_, prof, err := RunProfile(context.Background(), f.g, figure3Query, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]string, len(prof.Ops))
	for i, op := range prof.Ops {
		ops[i] = op.Operator
	}
	if got, want := strings.Join(ops, ","), "Start,Match,With,Match,Return"; got != want {
		t.Fatalf("operators = %s, want %s", got, want)
	}
	if d := prof.Ops[0].Detail; !strings.Contains(d, `node_auto_index("short_name: wakeup.elf")`) {
		t.Fatalf("Start detail = %q", d)
	}
	if d := prof.Ops[1].Detail; !strings.Contains(d, "compiled_from|linked_from*") {
		t.Fatalf("Match detail = %q", d)
	}
	if d := prof.Ops[3].Detail; !strings.Contains(d, "(n:field{short_name: ") {
		t.Fatalf("second Match detail = %q", d)
	}
}

// TestProfileBudgetAbort shows an aborted query still yields a partial
// trace whose last operator is the one that burned the budget.
func TestProfileBudgetAbort(t *testing.T) {
	f := buildFixture()
	_, prof, err := RunProfile(context.Background(), f.g, figure6Query, Limits{MaxSteps: 3})
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want budget abort", err)
	}
	if prof == nil || len(prof.Ops) == 0 {
		t.Fatal("no partial profile on abort")
	}
	last := prof.Ops[len(prof.Ops)-1]
	if last.Operator != "Match" || last.DBHits == 0 {
		t.Fatalf("aborting operator = %+v", last)
	}
}

// TestProfileFormat sanity-checks the CLI table rendering.
func TestProfileFormat(t *testing.T) {
	f := buildFixture()
	_, prof, err := RunProfile(context.Background(), f.g, figure3Query, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	out := prof.Format()
	for _, want := range []string{"Operator", "DB Hits", "Start", "Return", "Total:"} {
		if !strings.Contains(out, want) {
			t.Fatalf("Format() missing %q:\n%s", want, out)
		}
	}
}

// TestCountersAdvance checks the executor metrics move with traffic.
func TestCountersAdvance(t *testing.T) {
	f := buildFixture()
	before := CountersSnapshot()
	res, err := Run(context.Background(), f.g, figure3Query)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := RunLimits(context.Background(), f.g, figure6Query, Limits{MaxSteps: 2}); !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("expected budget abort, got %v", err)
	}
	after := CountersSnapshot()
	if after.Queries < before.Queries+2 {
		t.Fatalf("queries %d -> %d", before.Queries, after.Queries)
	}
	if after.BudgetAborts != before.BudgetAborts+1 {
		t.Fatalf("budget aborts %d -> %d", before.BudgetAborts, after.BudgetAborts)
	}
	if after.RowsReturned < before.RowsReturned+int64(len(res.Rows)) {
		t.Fatalf("rows %d -> %d", before.RowsReturned, after.RowsReturned)
	}
	if after.Steps < before.Steps+res.Steps {
		t.Fatalf("steps %d -> %d", before.Steps, after.Steps)
	}
}

// TestProfileBudgetAbortMidPipeline aborts figure 3 at every step
// budget short of its full run, while rows are in flight through the
// pipeline. Each partial profile stops before Return, its dbHits sum to
// the steps taken, and it ends at a Match that carries hits.
func TestProfileBudgetAbortMidPipeline(t *testing.T) {
	f := buildFixture()
	ctx := context.Background()
	full, err := Run(ctx, f.g, figure3Query)
	if err != nil {
		t.Fatal(err)
	}
	for budget := int64(1); budget < full.Steps; budget++ {
		_, prof, err := RunProfile(ctx, f.g, figure3Query, Limits{MaxSteps: budget})
		if !errors.Is(err, ErrBudgetExceeded) {
			t.Fatalf("budget %d: err = %v, want budget abort", budget, err)
		}
		if prof == nil || len(prof.Ops) == 0 || len(prof.Ops) >= 5 {
			t.Fatalf("budget %d: want a partial profile, got %+v", budget, prof)
		}
		var hits int64
		for _, op := range prof.Ops {
			hits += op.DBHits
		}
		if hits != prof.Steps || prof.Steps != budget+1 {
			t.Fatalf("budget %d: dbHits sum %d, profile steps %d, want %d", budget, hits, prof.Steps, budget+1)
		}
		last := prof.Ops[len(prof.Ops)-1]
		if last.Operator != "Match" || last.DBHits == 0 {
			t.Fatalf("budget %d: profile ends at %+v", budget, last)
		}
	}
}

// TestProfileBlockingWith: a blocking WITH stage (ORDER BY ... LIMIT)
// mid-pipeline still gets one operator per clause, with the rows each
// clause handed on.
func TestProfileBlockingWith(t *testing.T) {
	f := buildFixture()
	const text = `
MATCH (n:function)
WITH n ORDER BY n.short_name LIMIT 3
MATCH n -[:calls]-> m
RETURN m.short_name`
	res, prof, err := RunProfile(context.Background(), f.g, text, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	ops := make([]string, len(prof.Ops))
	var hits int64
	for i, op := range prof.Ops {
		ops[i] = op.Operator
		hits += op.DBHits
	}
	if got, want := strings.Join(ops, ","), "Match,With,Match,Return"; got != want {
		t.Fatalf("operators = %s, want %s", got, want)
	}
	if hits != prof.Steps || prof.Steps != res.Steps {
		t.Fatalf("dbHits sum %d, profile steps %d, result steps %d", hits, prof.Steps, res.Steps)
	}
	if prof.Ops[0].Rows != 12 || prof.Ops[1].Rows != 3 || prof.Ops[3].Rows != int64(len(res.Rows)) {
		t.Fatalf("operator rows %+v for %d result rows", prof.Ops, len(res.Rows))
	}
}

// TestProfileSetupErrorNamesClause: a SKIP that fails to evaluate on a
// later clause is charged to that clause, not to the first one, so the
// partial profile lists every clause up to the failing RETURN.
func TestProfileSetupErrorNamesClause(t *testing.T) {
	f := buildFixture()
	_, prof, err := RunProfile(context.Background(), f.g, `MATCH (n:function) WITH n RETURN n SKIP 'x'`, Limits{})
	if err == nil || !strings.Contains(err.Error(), "SKIP/LIMIT must be an integer") {
		t.Fatalf("err = %v, want the SKIP evaluation error", err)
	}
	ops := make([]string, len(prof.Ops))
	for i, op := range prof.Ops {
		ops[i] = op.Operator
	}
	if got, want := strings.Join(ops, ","), "Match,With,Return"; got != want {
		t.Fatalf("operators = %s, want %s", got, want)
	}
}
