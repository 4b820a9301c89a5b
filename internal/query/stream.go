package query

import (
	"context"
	"strings"
	"time"

	"frappe/internal/graph"
	"frappe/internal/obs/trace"
)

// Streaming execution: the clause pipeline run push-based, one row at a
// time, so a query's result never has to exist in memory all at once.
// The materialized executor (run) applies each clause to the full row
// set before moving to the next; here every source row flows through
// the whole clause chain depth-first and the projected result row is
// handed to a sink the moment it exists. Peak memory is the deepest
// in-flight row plus per-clause streaming state (a DISTINCT seen-set,
// SKIP/LIMIT counters) — independent of how many rows the query
// ultimately produces.
//
// Not every projection can stream: ORDER BY and aggregation need the
// full input before they can emit anything. Streamable reports whether
// a query's shape is fully pipelineable; ExecuteStream transparently
// falls back to materialize-then-replay for the rest, so callers get
// one surface with identical rows either way.

// DefaultStreamDepth is the bounded-channel depth a Stream uses when
// the caller passes depth <= 0. It bounds how far the executor can run
// ahead of a slow consumer.
const DefaultStreamDepth = 64

// RowSink consumes one projected result row, in column order. Returning
// an error aborts the execution (the LIMIT/disconnect path).
type RowSink func(row []Val) error

// errStopStream aborts the pipeline early once a LIMIT is satisfied:
// every upstream row from here on would be dropped anyway.
var errStopStream = &Error{Msg: "stream: limit reached"}

// Streamable reports whether q can run fully pipelined: a single RETURN
// in final position and no projection (WITH or RETURN) that needs its
// whole input before emitting — ORDER BY and aggregates force
// materialization; DISTINCT, SKIP and LIMIT stream with incremental
// state.
func Streamable(q *Query) bool {
	if len(q.Clauses) == 0 {
		return false
	}
	for i, c := range q.Clauses {
		switch t := c.(type) {
		case *ReturnClause:
			if i != len(q.Clauses)-1 {
				return false
			}
			if !streamableProjection(t.Items, t.OrderBy) {
				return false
			}
		case *WithClause:
			if !streamableProjection(t.Items, t.OrderBy) {
				return false
			}
		}
	}
	_, ok := q.Clauses[len(q.Clauses)-1].(*ReturnClause)
	return ok
}

func streamableProjection(items []ReturnItem, order []OrderKey) bool {
	if len(order) > 0 {
		return false
	}
	for _, it := range items {
		if isAggregate(it.Expr) {
			return false
		}
	}
	return true
}

// ExecuteStreamFunc runs q fully pipelined under resource budgets,
// announcing the output columns once via onCols and pushing every
// projected row into sink as it is produced. hints carries the
// planner's per-MATCH-clause pattern hints (nil = naive); fastPred
// enables the planner's reachability fast path for WHERE pattern
// predicates. Panics are recovered into the returned error exactly like
// ExecuteLimits. The caller must have checked Streamable(q).
func ExecuteStreamFunc(ctx context.Context, src graph.Source, q *Query, lim Limits, hints [][]PatternHint, fastPred bool, onCols func([]string) error, sink RowSink) (steps int64, err error) {
	start := time.Now()
	ex := &exec{src: src, ctx: ctx, limits: lim, fastPred: fastPred}
	sp := trace.FromContext(ctx).Child("query.stream", trace.Bool("pipelined", true))
	var rows int64
	defer func() {
		if r := recover(); r != nil {
			err = AbortError(r)
		}
		millis := float64(time.Since(start)) / float64(time.Millisecond)
		recordStreamMetrics(rows, err, millis, ex.steps)
		steps = ex.steps
		if sp != nil {
			sp.SetAttr(trace.Int("rows", rows), trace.Int("steps", ex.steps))
			if err != nil {
				sp.SetError(err)
			}
			sp.End()
		}
	}()
	err = ex.runStream(q, hints, onCols, func(row []Val) error {
		rows++
		return sink(row)
	})
	return ex.steps, err
}

// projState is one projection clause's streaming state, alive for the
// whole execution: the DISTINCT seen-set and the SKIP/LIMIT counters.
// Its memory is O(distinct keys), never O(input rows).
type projState struct {
	items    []ReturnItem
	cols     []string
	distinct bool
	seen     map[string]bool
	skip     int64
	limit    int64
	hasSkip  bool
	hasLimit bool
	dropped  int64 // rows consumed by SKIP so far
	passed   int64 // rows forwarded downstream so far
}

// apply pushes one row through the projection: evaluate items, dedup,
// skip, limit. pass is false when the row is absorbed; errStopStream
// signals that LIMIT is satisfied and upstream enumeration can stop.
func (st *projState) apply(ex *exec, row Row) (out Row, pass bool, err error) {
	out = make(Row, len(st.items))
	for i, it := range st.items {
		v, err := ex.evalExpr(it.Expr, row)
		if err != nil {
			return nil, false, err
		}
		out[st.cols[i]] = v
	}
	if st.distinct {
		var sb strings.Builder
		for _, c := range st.cols {
			out[c].key(&sb)
			sb.WriteByte('|')
		}
		k := sb.String()
		if st.seen[k] {
			return nil, false, nil
		}
		st.seen[k] = true
	}
	if st.hasSkip && st.dropped < st.skip {
		st.dropped++
		return nil, false, nil
	}
	if st.hasLimit && st.passed >= st.limit {
		return nil, false, errStopStream
	}
	st.passed++
	return out, true, nil
}

// runStream executes the clause chain push-based. Row order, DISTINCT
// first-seen order and SKIP/LIMIT row selection are identical to the
// materialized run(): each clause enumerates in the same order, only
// the buffering between clauses is gone.
func (ex *exec) runStream(q *Query, matchHints [][]PatternHint, onCols func([]string) error, sink RowSink) error {
	n := len(q.Clauses)
	if _, ok := q.Clauses[n-1].(*ReturnClause); !ok {
		return ex.errf("query has no RETURN clause")
	}

	// Static per-clause state: planner hints by clause index, resolved
	// START seeds, projection streaming state. SKIP/LIMIT are evaluated
	// once here, like the materialized path evaluates them once per
	// projection.
	hintsAt := make([][]PatternHint, n)
	startIDs := make([][][]graph.NodeID, n)
	startCounts := make([][]int, n)
	states := make([]*projState, n)
	matchCounts := make([]int, n)
	mi := 0
	buildProj := func(items []ReturnItem, distinct bool, skipE, limitE Expr) (*projState, error) {
		st := &projState{items: items, distinct: distinct}
		st.cols = make([]string, len(items))
		for i, it := range items {
			st.cols[i] = it.Alias
		}
		if distinct {
			st.seen = map[string]bool{}
		}
		if skipE != nil {
			v, err := ex.evalIntConst(skipE)
			if err != nil {
				return nil, err
			}
			st.skip, st.hasSkip = v, true
		}
		if limitE != nil {
			v, err := ex.evalIntConst(limitE)
			if err != nil {
				return nil, err
			}
			st.limit, st.hasLimit = v, true
		}
		return st, nil
	}
	for i, c := range q.Clauses {
		switch t := c.(type) {
		case *StartClause:
			ids := make([][]graph.NodeID, len(t.Items))
			for j, item := range t.Items {
				resolved, err := ex.startItemIDs(item)
				if err != nil {
					return err
				}
				ids[j] = resolved
			}
			startIDs[i] = ids
			startCounts[i] = make([]int, len(t.Items))
		case *MatchClause:
			if mi < len(matchHints) {
				hintsAt[i] = matchHints[mi]
			}
			mi++
		case *WithClause:
			st, err := buildProj(t.Items, t.Distinct, t.Skip, t.Limit)
			if err != nil {
				return err
			}
			states[i] = st
		case *ReturnClause:
			st, err := buildProj(t.Items, t.Distinct, t.Skip, t.Limit)
			if err != nil {
				return err
			}
			states[i] = st
		}
	}
	if err := onCols(states[n-1].cols); err != nil {
		return err
	}

	var feed func(i int, row Row) error
	feed = func(i int, row Row) error {
		switch t := q.Clauses[i].(type) {
		case *StartClause:
			var rec func(row Row, k int) error
			rec = func(row Row, k int) error {
				if k == len(t.Items) {
					return feed(i+1, row)
				}
				for _, id := range startIDs[i][k] {
					startCounts[i][k]++
					if err := ex.checkRows(startCounts[i][k]); err != nil {
						return err
					}
					r := row.clone()
					r[t.Items[k].Var] = NodeVal(id)
					if err := rec(r, k+1); err != nil {
						return err
					}
				}
				return nil
			}
			return rec(row, 0)
		case *MatchClause:
			matched := false
			err := ex.matchPatterns(row, t.Patterns, hintsAt[i], edgeSet{}, func(r Row) error {
				matchCounts[i]++
				if err := ex.checkRows(matchCounts[i]); err != nil {
					return err
				}
				matched = true
				return feed(i+1, r)
			})
			if err != nil {
				return err
			}
			if !matched && t.Optional {
				return feed(i+1, optionalNullRow(row, t))
			}
			return nil
		case *WhereClause:
			v, err := ex.evalExpr(t.Cond, row)
			if err != nil {
				return err
			}
			if !v.IsNull() && v.Truthy() {
				return feed(i+1, row)
			}
			return nil
		case *WithClause:
			out, pass, err := states[i].apply(ex, row)
			if err != nil || !pass {
				return err
			}
			return feed(i+1, out)
		case *ReturnClause:
			out, pass, err := states[i].apply(ex, row)
			if err != nil || !pass {
				return err
			}
			st := states[i]
			vals := make([]Val, len(st.cols))
			for j, c := range st.cols {
				vals[j] = out[c]
			}
			return sink(vals)
		}
		return nil
	}
	err := feed(0, Row{})
	if err == errStopStream {
		err = nil
	}
	return err
}

// optionalNullRow extends row with nulls for every unbound variable an
// OPTIONAL MATCH would have bound — the same padding applyMatchHints
// does for unmatched rows.
func optionalNullRow(row Row, mc *MatchClause) Row {
	r := row.clone()
	for _, pat := range mc.Patterns {
		for _, np := range pat.Nodes {
			if np.Var != "" {
				if _, ok := r[np.Var]; !ok {
					r[np.Var] = nullVal
				}
			}
		}
		for _, rp := range pat.Rels {
			if rp.Var != "" {
				if _, ok := r[rp.Var]; !ok {
					r[rp.Var] = nullVal
				}
			}
		}
		if pat.PathVar != "" {
			if _, ok := r[pat.PathVar]; !ok {
				r[pat.PathVar] = nullVal
			}
		}
	}
	return r
}

// --- channel-backed consumer handle ---

// Stream is one streamed execution's consumer handle: the output
// columns, a bounded row channel, and the terminal state (row count,
// steps, error) available once the channel closes. The producer never
// outlives the context: cancel it and drain Rows (or call Wait) to
// release the goroutine. Rows received from the channel are in column
// order and must be treated as read-only when the stream replays a
// shared cached result.
type Stream struct {
	rows      chan []Val
	done      chan struct{}
	colsCh    chan struct{}
	cols      []string
	count     int64
	steps     int64
	err       error
	pipelined bool
}

func newStream(depth int, pipelined bool) *Stream {
	if depth <= 0 {
		depth = DefaultStreamDepth
	}
	return &Stream{
		rows:      make(chan []Val, depth),
		done:      make(chan struct{}),
		colsCh:    make(chan struct{}),
		pipelined: pipelined,
	}
}

// run starts the producer goroutine. fn pushes columns through onCols
// exactly once and rows through sink; the sink blocks on the bounded
// channel and aborts when ctx is cancelled, so an abandoned consumer
// that cancels its context always unblocks the producer.
func (s *Stream) run(ctx context.Context, fn func(onCols func([]string) error, sink RowSink) (int64, error)) {
	go func() {
		defer close(s.done)
		defer close(s.rows)
		onCols := func(cols []string) error {
			s.cols = cols
			close(s.colsCh)
			return nil
		}
		sink := func(row []Val) error {
			select {
			case s.rows <- row:
				s.count++
				return nil
			case <-ctx.Done():
				return ctx.Err()
			}
		}
		s.steps, s.err = fn(onCols, sink)
	}()
}

// Columns blocks until the output columns are known (before the first
// row) or the execution failed before producing them.
func (s *Stream) Columns(ctx context.Context) ([]string, error) {
	select {
	case <-s.colsCh:
		return s.cols, nil
	case <-s.done:
		// Both channels may be ready; prefer the columns if they exist.
		select {
		case <-s.colsCh:
			return s.cols, nil
		default:
		}
		return nil, s.err
	case <-ctx.Done():
		return nil, ctx.Err()
	}
}

// Rows is the bounded result channel; it closes when execution ends
// (successfully or not — check Wait for the terminal error).
func (s *Stream) Rows() <-chan []Val { return s.rows }

// Wait blocks until the execution finishes and returns how many rows
// were produced into the channel, the step count, and the terminal
// error (nil on success).
func (s *Stream) Wait() (count, steps int64, err error) {
	<-s.done
	return s.count, s.steps, s.err
}

// Pipelined reports whether the stream ran fully pipelined (bounded
// memory) or materialized first and replayed.
func (s *Stream) Pipelined() bool { return s.pipelined }

// ExecuteStream runs q as a streaming execution, yielding projected
// rows through a bounded channel of the given depth (<= 0 means
// DefaultStreamDepth). Fully-pipelineable queries run with bounded
// memory; ORDER BY and aggregation shapes materialize through
// ExecuteLimits and replay their rows, so the rows are identical either
// way. Budgets, ctx cancellation and panic recovery behave exactly as
// in ExecuteLimits; the terminal error is reported by Wait.
func ExecuteStream(ctx context.Context, src graph.Source, q *Query, lim Limits, depth int) *Stream {
	if Streamable(q) {
		return PipelinedStream(ctx, src, q, lim, nil, false, depth)
	}
	return MaterializedStream(ctx, depth, func() (*Result, error) {
		return ExecuteLimits(ctx, src, q, lim)
	})
}

// PipelinedStream is ExecuteStream's bounded-memory path with the
// planner's hints and fast-predicate mode (internal/plan calls it for
// compiled streamable plans). The caller must have checked
// Streamable(q).
func PipelinedStream(ctx context.Context, src graph.Source, q *Query, lim Limits, hints [][]PatternHint, fastPred bool, depth int) *Stream {
	s := newStream(depth, true)
	s.run(ctx, func(onCols func([]string) error, sink RowSink) (int64, error) {
		return ExecuteStreamFunc(ctx, src, q, lim, hints, fastPred, onCols, sink)
	})
	return s
}

// MaterializedStream adapts a materializing execution to the Stream
// surface: run once, then replay columns and rows through the channel.
// Memory is O(result), not O(channel depth) — callers use it for the
// shapes Streamable rejects and for cache replays.
func MaterializedStream(ctx context.Context, depth int, run func() (*Result, error)) *Stream {
	s := newStream(depth, false)
	s.run(ctx, func(onCols func([]string) error, sink RowSink) (int64, error) {
		res, err := run()
		if err != nil {
			return 0, err
		}
		if err := onCols(res.Columns); err != nil {
			return res.Steps, err
		}
		for _, row := range res.Rows {
			if err := sink(row); err != nil {
				return res.Steps, err
			}
		}
		return res.Steps, nil
	})
	return s
}

// ReplayStream streams an already-computed result (a query-cache hit)
// through the Stream surface. The result is shared with the cache:
// consumers must not mutate received rows.
func ReplayStream(ctx context.Context, res *Result, depth int) *Stream {
	return MaterializedStream(ctx, depth, func() (*Result, error) { return res, nil })
}
