package query

import (
	"context"
	"errors"
	"strings"
	"testing"
	"time"

	"frappe/internal/graph"
)

// renderRows formats a row sequence so streamed and materialized
// executions can be compared byte for byte, order included.
func renderRows(src graph.Source, rows [][]Val) []string {
	out := make([]string, len(rows))
	for i, row := range rows {
		s := ""
		for j, v := range row {
			if j > 0 {
				s += "\t"
			}
			s += v.Format(src)
		}
		out[i] = s
	}
	return out
}

// collectStream drains a stream into (columns, rows, steps, err).
func collectStream(t *testing.T, ctx context.Context, st *Stream) ([]string, [][]Val, int64, error) {
	t.Helper()
	cols, err := st.Columns(ctx)
	if err != nil {
		_, steps, werr := st.Wait()
		return nil, nil, steps, werr
	}
	var rows [][]Val
	for row := range st.Rows() {
		rows = append(rows, row)
	}
	_, steps, werr := st.Wait()
	return cols, rows, steps, werr
}

// TestStreamMatchesMaterialized is the satellite-3 equivalence table:
// every query shape — the paper's figures plus SKIP/LIMIT/ORDER
// BY/DISTINCT variants — must produce byte-identical rows in identical
// order through both execution paths, with the same step accounting.
func TestStreamMatchesMaterialized(t *testing.T) {
	f := buildFixture()
	ctx := context.Background()
	cases := []struct {
		name      string
		text      string
		pipelined bool // expected Streamable classification
	}{
		{"figure3", figure3Query, true},
		{"figure5", figure5Query, true},
		{"figure6_distinct_closure", figure6Query, true},
		{"match_scan", `MATCH (n:function) RETURN n.short_name`, true},
		{"skip_limit", `MATCH (n:function) RETURN n.short_name AS s SKIP 2 LIMIT 3`, true},
		{"limit_zero", `MATCH (n:function) RETURN n LIMIT 0`, true},
		{"skip_past_end", `MATCH (n:function) RETURN n SKIP 1000`, true},
		{"distinct_skip_limit", `
START n=node:node_auto_index('short_name: pci_read_bases')
MATCH n -[:calls*]-> m
RETURN distinct m SKIP 1 LIMIT 1`, true},
		{"with_chain", `
MATCH (n:function) -[:calls]-> m
WITH distinct m
MATCH m -[:calls]-> k
RETURN distinct k`, true},
		{"order_by", `MATCH (n:function) RETURN n.short_name AS s ORDER BY s`, false},
		{"order_by_desc_limit", `MATCH (n:function) RETURN n.short_name AS s ORDER BY s DESC LIMIT 2`, false},
		{"aggregate", `MATCH (n:function) -[:calls]-> m RETURN n.short_name, count(*)`, false},
		{"optional_match", `
START n=node:node_auto_index('short_name: never_called_writer')
OPTIONAL MATCH n -[:calls]-> m
RETURN n, m`, true},
		{"blocking_with_then_match", `
MATCH (n:function)
WITH n ORDER BY n.short_name DESC LIMIT 3
MATCH n -[:calls]-> m
RETURN n.short_name, m.short_name`, false},
		{"count_over_no_rows", `MATCH (n:function{short_name: 'no_such_function'}) RETURN count(*)`, false},
		{"order_by_within_max_rows", `MATCH (n:function) RETURN n.short_name AS s ORDER BY s`, false},
		{"order_by_over_max_rows", `MATCH (n:function) RETURN n.short_name AS s ORDER BY s`, false},
		{"return_not_final", `MATCH (n) RETURN count(n) MATCH (m) RETURN m`, false},
		{"no_return", `MATCH (n:function) WITH n`, false},
	}
	// The fixture has 12 functions: one budget the ORDER BY stage's
	// buffered input fits, one it exceeds.
	limits := map[string]Limits{
		"order_by_within_max_rows": {MaxRows: 12},
		"order_by_over_max_rows":   {MaxRows: 11},
	}
	// The cases both runs must fail, with identical error text.
	wantErr := map[string]bool{
		"order_by_over_max_rows": true,
		"return_not_final":       true,
		"no_return":              true,
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			q := mustParseQ(t, tc.text)
			if got := Streamable(q); got != tc.pipelined {
				t.Fatalf("Streamable = %v, want %v", got, tc.pipelined)
			}
			lim := limits[tc.name]
			mat, err := oracle(ctx, f.g, q, lim)
			st := ExecuteStream(ctx, f.g, q, lim, 3) // tiny depth: exercise backpressure
			cols, rows, steps, werr := collectStream(t, ctx, st)
			if wantErr[tc.name] {
				if err == nil || werr == nil || werr.Error() != err.Error() {
					t.Fatalf("streamed error %v, materialized %v", werr, err)
				}
				return
			}
			if err != nil {
				t.Fatalf("materialized: %v", err)
			}
			if werr != nil {
				t.Fatalf("streamed: %v", werr)
			}
			if st.Pipelined() != tc.pipelined {
				t.Fatalf("Pipelined = %v, want %v", st.Pipelined(), tc.pipelined)
			}
			if len(cols) != len(mat.Columns) {
				t.Fatalf("columns %v vs %v", cols, mat.Columns)
			}
			for i := range cols {
				if cols[i] != mat.Columns[i] {
					t.Fatalf("columns %v vs %v", cols, mat.Columns)
				}
			}
			got, want := renderRows(f.g, rows), renderRows(f.g, mat.Rows)
			if len(got) != len(want) {
				t.Fatalf("row count %d vs %d\nstreamed: %q\nmaterialized: %q", len(got), len(want), got, want)
			}
			for i := range got {
				if got[i] != want[i] {
					t.Fatalf("row %d differs:\nstreamed:     %q\nmaterialized: %q", i, got[i], want[i])
				}
			}
			// A satisfied LIMIT stops the streamed pipeline's upstream
			// work early, so its step count may be lower; it must never
			// be higher than the materialized execution's.
			if steps > mat.Steps {
				t.Fatalf("streamed did more work: steps %d vs materialized %d", steps, mat.Steps)
			}
		})
	}
}

// TestStreamBudgetError: a budget abort surfaces through Wait with the
// same sentinel the materialized path returns, after whatever rows had
// already streamed.
func TestStreamBudgetError(t *testing.T) {
	f := buildFixture()
	ctx := context.Background()
	q := mustParseQ(t, `MATCH (n:function) RETURN n`)
	st := ExecuteStream(ctx, f.g, q, Limits{MaxRows: 2}, 0)
	_, _, _, err := collectStream(t, ctx, st)
	if !errors.Is(err, ErrBudgetExceeded) {
		t.Fatalf("err = %v, want ErrBudgetExceeded", err)
	}
	var be *BudgetError
	if !errors.As(err, &be) {
		t.Fatalf("err %v is not a *BudgetError", err)
	}
}

// TestStreamCancelStopsProducer: cancelling the context while no one
// consumes must unblock the producer goroutine promptly (it is parked
// on a full channel); Wait must return instead of leaking.
func TestStreamCancelStopsProducer(t *testing.T) {
	f := buildFixture()
	ctx, cancel := context.WithCancel(context.Background())
	q := mustParseQ(t, `MATCH (n:function) RETURN n`)
	st := ExecuteStream(ctx, f.g, q, Limits{}, 1)
	if _, err := st.Columns(ctx); err != nil {
		t.Fatalf("columns: %v", err)
	}
	// Take one row, then walk away and cancel: the producer is blocked
	// mid-send with more rows to go.
	<-st.Rows()
	cancel()
	done := make(chan error, 1)
	go func() {
		_, _, err := st.Wait()
		done <- err
	}()
	select {
	case err := <-done:
		if !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("producer did not stop after cancel: Wait still blocked")
	}
}

// TestStreamPanicRecovery: a panicking source aborts the stream with
// the interpreter's query-aborted error instead of crashing the
// process, matching ExecuteLimits.
func TestStreamPanicRecovery(t *testing.T) {
	f := buildFixture()
	q := mustParseQ(t, `MATCH (n) RETURN n.short_name`)
	st := ExecuteStream(context.Background(), panickySource{f.g}, q, Limits{}, 0)
	_, _, _, err := collectStream(t, context.Background(), st)
	if err == nil || !strings.Contains(err.Error(), "query aborted") {
		t.Fatalf("err = %v, want query-aborted error", err)
	}
}

// TestReplayStream: a cached result replays through the stream surface
// with identical rows and the cached step count.
func TestReplayStream(t *testing.T) {
	f := buildFixture()
	ctx := context.Background()
	q := mustParseQ(t, `MATCH (n:function) RETURN n.short_name AS s ORDER BY s`)
	res, err := ExecuteLimits(ctx, f.g, q, Limits{})
	if err != nil {
		t.Fatal(err)
	}
	st := ReplayStream(ctx, res, 0)
	cols, rows, _, werr := collectStream(t, ctx, st)
	if werr != nil {
		t.Fatal(werr)
	}
	if st.Pipelined() {
		t.Fatal("replay must not report pipelined")
	}
	if len(cols) != 1 || cols[0] != "s" {
		t.Fatalf("columns = %v", cols)
	}
	got, want := renderRows(f.g, rows), renderRows(f.g, res.Rows)
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("row %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// TestLimitStopsEnumeration: a satisfied LIMIT stops upstream work
// right after its last row is handed on, and LIMIT 0 enumerates
// nothing, in WITH and RETURN alike, on every surface. The rows are the
// oracle's.
func TestLimitStopsEnumeration(t *testing.T) {
	f := buildFixture()
	ctx := context.Background()
	for _, tc := range []struct {
		text  string
		steps int64
	}{
		{`MATCH (n:function) RETURN n LIMIT 0`, 0},
		{`MATCH (n:function) RETURN n LIMIT 1`, 1},
		{`MATCH (n:function) WITH n LIMIT 0 RETURN n`, 0},
		{`MATCH (n:function) WITH n LIMIT 1 RETURN n`, 1},
		{`MATCH (n:function) WITH n LIMIT 0 RETURN count(*)`, 0},
	} {
		q := mustParseQ(t, tc.text)
		want, err := oracle(ctx, f.g, q, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		mat, err := ExecuteLimits(ctx, f.g, q, Limits{})
		if err != nil {
			t.Fatal(err)
		}
		_, rows, steps, err := collectStream(t, ctx, ExecuteStream(ctx, f.g, q, Limits{}, 0))
		if err != nil {
			t.Fatal(err)
		}
		if mat.Steps != tc.steps || steps != tc.steps {
			t.Errorf("%s: steps materialized %d, streamed %d, want %d", tc.text, mat.Steps, steps, tc.steps)
		}
		w := strings.Join(renderRows(f.g, want.Rows), "\n")
		if got := strings.Join(renderRows(f.g, mat.Rows), "\n"); got != w {
			t.Errorf("%s: materialized rows %q, want %q", tc.text, got, w)
		}
		if got := strings.Join(renderRows(f.g, rows), "\n"); got != w {
			t.Errorf("%s: streamed rows %q, want %q", tc.text, got, w)
		}
	}
}
