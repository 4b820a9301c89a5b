package query

import (
	"context"
	"errors"
	"fmt"
	"time"

	"frappe/internal/graph"
	"frappe/internal/obs/trace"
)

// The query executor: the clause chain run push-based, one row at a
// time. Every source row flows depth-first through the whole chain and
// the projected result row is handed to a sink the moment it exists.
// Every surface is a consumer of this one pipeline: ExecuteHints
// collects the rows into a Result, a Stream pushes them through a
// bounded channel, and PROFILE is per-clause counters kept during the
// same run.
//
// A projection with ORDER BY or an aggregate is a blocking stage: it
// buffers its input until that input ends, then applies the projection
// and feeds the result downstream. Every other projection streams with
// incremental state (a DISTINCT seen-set, SKIP/LIMIT counters), so a
// query without a blocking stage runs in memory bounded by its deepest
// in-flight row.

// PatternHint carries the planner's per-pattern execution decisions
// into the match machinery. The zero value (Anchor 0 is only consulted
// for unbound patterns, and position 0 is the naive default) means "no
// hint"; the executor validates every field, so a stale or malformed
// hint degrades to naive behaviour instead of wrong answers.
type PatternHint struct {
	// Anchor is the node position to seed an unbound pattern from
	// (cheapest scan/lookup per the cost model). Ignored when any
	// pattern variable is already bound — one seed beats any scan.
	Anchor int
	// LeftFirst expands the jobs left of the anchor before the ones to
	// its right, when the left chain has the smaller estimated fan-out.
	LeftFirst bool
	// Closure marks relationship positions (by index into Pattern.Rels)
	// to execute as a visited-set transitive closure instead of
	// path enumeration. Only legal when the planner proved downstream
	// clauses are multiplicity-invariant; the executor additionally
	// refuses it for patterns that bind the relationship or path.
	Closure []bool
}

// RowSink consumes one projected result row, in column order. Returning
// an error aborts the execution (the disconnect path).
type RowSink func(row []Val) error

// errStopStream aborts upstream enumeration once a LIMIT is satisfied:
// every upstream row from there on would be dropped anyway.
var errStopStream = &Error{Msg: "stream: limit reached"}

// ExecuteStreamFunc runs q under resource budgets, announcing the
// output columns once via onCols and pushing every result row into sink
// as it is produced. hints carries the planner's per-MATCH-clause
// pattern hints and fastPred enables its reachability fast path for
// WHERE pattern predicates; nil and false run the query naively. A
// non-nil prof receives one operator per clause (rows out, dbHits and
// wall time), partial when the query fails. Panics, including typed
// corruption panics from a disk-backed source, are recovered into the
// returned error, so one bad query or one bad disk page cannot take
// down a serving process.
func ExecuteStreamFunc(ctx context.Context, src graph.Source, q *Query, lim Limits, hints [][]PatternHint, fastPred bool, prof *Profile, onCols func([]string) error, sink RowSink) (steps int64, err error) {
	start := time.Now()
	ex := &exec{src: src, ctx: ctx, limits: lim, fastPred: fastPred, sink: sink, stopped: -1, failedAt: -1}
	var sp *trace.Span
	if parent := trace.FromContext(ctx); parent != nil {
		sp = parent.Child("query.execute", trace.Bool("interpreter", !fastPred))
	}
	ex.count = prof != nil || sp != nil
	if prof != nil {
		ex.clock, ex.markT = true, start
	}
	defer func() {
		if r := recover(); r != nil {
			err = abortError(r)
		}
		var rows int64
		if n := len(ex.stages); n > 0 {
			rows = ex.stages[n-1].out
		}
		millis := float64(time.Since(start)) / float64(time.Millisecond)
		recordQueryMetrics(rows, err, millis, ex.steps)
		if ex.count {
			ex.report(prof, sp, start, err)
		}
		if prof != nil {
			prof.Steps, prof.Millis = ex.steps, millis
			if err == nil {
				prof.Rows = rows
			}
		}
		if sp != nil {
			sp.SetAttr(trace.Int("rows", rows), trace.Int("steps", ex.steps))
			sp.SetError(err)
			sp.End()
		}
		steps = ex.steps
	}()
	err = ex.execute(q, hints, onCols)
	return ex.steps, err
}

// abortError converts a recovered panic value into the query-aborted
// error.
func abortError(r any) error {
	if e, ok := r.(error); ok {
		return fmt.Errorf("cypher: query aborted: %w", e)
	}
	return fmt.Errorf("cypher: query aborted: %v", r)
}

// clauseState is one clause's part of a run: what setup resolved once
// (START seeds, planner hints, projection columns and SKIP/LIMIT) and
// the clause's streaming state.
type clauseState struct {
	clause Clause
	in     *scope        // the variables the clause's input rows bind
	hints  []PatternHint // MATCH
	starts []startItem   // START, one per item
	rows   int           // MATCH: rows produced, charged to the row budget

	// WITH and RETURN.
	proj     *ReturnClause
	cols     []string
	colScope *scope          // the projected rows' variables: WITH's next scope
	colSlots []int           // slot of each column in colScope
	blocking bool            // ORDER BY or an aggregate: buffers its input in buf
	buf      []Row           // blocking: input rows, cloned
	seen     map[string]bool // streaming DISTINCT: keys passed so far
	vals     []Val           // streaming WITH: buffer reused for each row
	next     Row             // streaming WITH: output row reused for each row
	skip     int64           // streaming: rows still to drop
	limit    int64           // streaming: rows still to pass; -1 without LIMIT

	out   int64 // rows handed downstream (before RETURN: PROFILE and traced runs)
	hits  int64 // steps charged (PROFILE and traced runs)
	nanos int64 // wall time charged (PROFILE)
}

// startItem is one START item's resolved seeds, the slot it binds and
// the rows it has produced, charged to the row budget.
type startItem struct {
	ids  []graph.NodeID
	slot int
	rows int
}

// projection returns a WITH or RETURN clause as the projection it
// applies (the two clauses have the same fields), or nil.
func projection(c Clause) *ReturnClause {
	switch t := c.(type) {
	case *WithClause:
		return (*ReturnClause)(t)
	case *ReturnClause:
		return t
	}
	return nil
}

// blocking reports whether a projection needs its whole input before it
// can emit: ORDER BY and aggregates do; DISTINCT, SKIP and LIMIT
// stream.
func blocking(p *ReturnClause) bool {
	if len(p.OrderBy) > 0 {
		return true
	}
	for _, it := range p.Items {
		if isAggregate(it.Expr) {
			return true
		}
	}
	return false
}

// hasBlockingStage reports whether any projection of q is blocking, in
// which case a stream of q holds that stage's input in memory.
func hasBlockingStage(q *Query) bool {
	for _, c := range q.Clauses {
		if p := projection(c); p != nil && blocking(p) {
			return true
		}
	}
	return false
}

// CheckShape validates q's clause sequence: exactly one RETURN, in
// final position. The executor rejects any other shape before it runs
// a clause, and the planner compiles only queries that pass.
func CheckShape(q *Query) error {
	n := len(q.Clauses)
	for i, c := range q.Clauses {
		if _, ok := c.(*ReturnClause); ok && i != n-1 {
			return errors.New("cypher: RETURN must be the final clause")
		}
	}
	if n == 0 {
		return errors.New("cypher: query has no RETURN clause")
	}
	if _, ok := q.Clauses[n-1].(*ReturnClause); !ok {
		return errors.New("cypher: query has no RETURN clause")
	}
	return nil
}

// setup validates the clause shape and resolves each clause's static
// inputs, in clause order so the first failing clause reports: its
// variables to slots of its scope, and its START seeds, planner hints,
// columns, SKIP and LIMIT.
func (ex *exec) setup(q *Query, hints [][]PatternHint) error {
	if err := CheckShape(q); err != nil {
		return err
	}
	ex.resolve(q)
	mi := 0
	for i, c := range q.Clauses {
		st := &ex.stages[i]
		var err error
		switch t := c.(type) {
		case *StartClause:
			for j := 0; j < len(t.Items) && err == nil; j++ {
				st.starts[j].ids, err = ex.startItemIDs(t.Items[j])
			}
		case *MatchClause:
			if mi < len(hints) {
				st.hints = hints[mi]
			}
			mi++
		case *WithClause, *ReturnClause:
			err = ex.setupProjection(i, projection(c))
		}
		if err != nil {
			ex.cur, ex.failedAt = i, i
			return err
		}
	}
	return nil
}

// resolve numbers the variables of every clause scope and resolves
// each pattern's and START item's variables to slots. A WITH's columns
// open a new scope; a RETURN's columns form the scope its ORDER BY keys
// read. Pattern predicates bind slots of the scope they run in, so they
// are numbered too.
func (ex *exec) resolve(q *Query) {
	ex.stages = make([]clauseState, len(q.Clauses))
	ex.pats = map[*Pattern]*patSlots{}
	sc := &scope{}
	for i, c := range q.Clauses {
		st := &ex.stages[i]
		st.clause, st.in = c, sc
		switch t := c.(type) {
		case *StartClause:
			st.starts = make([]startItem, len(t.Items))
			for j, it := range t.Items {
				st.starts[j].slot = sc.add(it.Var)
			}
		case *MatchClause:
			for _, pat := range t.Patterns {
				ex.resolvePattern(pat, sc)
			}
		case *WhereClause:
			ex.resolvePredicates(t.Cond, sc)
		case *WithClause, *ReturnClause:
			p := projection(c)
			st.colScope = &scope{}
			st.cols = make([]string, len(p.Items))
			st.colSlots = make([]int, len(p.Items))
			for j, it := range p.Items {
				ex.resolvePredicates(it.Expr, sc)
				st.cols[j] = it.Alias
				st.colSlots[j] = st.colScope.add(it.Alias)
			}
			for _, k := range p.OrderBy {
				ex.resolvePredicates(k.Expr, st.colScope)
			}
			if _, ok := c.(*WithClause); ok {
				sc = st.colScope
			}
		}
	}
}

// resolvePattern numbers pat's variables in sc.
func (ex *exec) resolvePattern(pat *Pattern, sc *scope) {
	slot := func(name string) int {
		if name == "" {
			return -1
		}
		return sc.add(name)
	}
	ps := &patSlots{nodes: make([]int, len(pat.Nodes)), rels: make([]int, len(pat.Rels)), path: slot(pat.PathVar)}
	for i, np := range pat.Nodes {
		ps.nodes[i] = slot(np.Var)
	}
	for i, rp := range pat.Rels {
		ps.rels[i] = slot(rp.Var)
	}
	ex.pats[pat] = ps
}

// resolvePredicates numbers the variables of every pattern predicate
// in e.
func (ex *exec) resolvePredicates(e Expr, sc *scope) {
	switch t := e.(type) {
	case *PatternExpr:
		ex.resolvePattern(t.Pattern, sc)
	case *PropExpr:
		ex.resolvePredicates(t.Base, sc)
	case *HasExpr:
		ex.resolvePredicates(t.Base, sc)
	case *UnaryExpr:
		ex.resolvePredicates(t.X, sc)
	case *BinaryExpr:
		ex.resolvePredicates(t.L, sc)
		ex.resolvePredicates(t.R, sc)
	case *CallExpr:
		for _, a := range t.Args {
			ex.resolvePredicates(a, sc)
		}
	}
}

// setupProjection evaluates a projection's SKIP and LIMIT once. A LIMIT
// of 0 means no row is wanted from upstream at all.
func (ex *exec) setupProjection(i int, p *ReturnClause) error {
	st := &ex.stages[i]
	st.proj = p
	st.blocking = blocking(p)
	st.limit = -1
	if p.Skip != nil {
		v, err := ex.evalIntConst(p.Skip)
		if err != nil {
			return err
		}
		st.skip = v
	}
	if p.Limit != nil {
		v, err := ex.evalIntConst(p.Limit)
		if err != nil {
			return err
		}
		st.limit = v
		if v == 0 {
			ex.stopped = i
		}
	}
	if p.Distinct && !st.blocking {
		st.seen = map[string]bool{}
	}
	return nil
}

// execute runs the pipeline: the source row through the chain, then
// each blocking stage in clause order once its input has ended. A stage
// whose LIMIT stopped upstream enumeration leaves the blocking stages
// before it with nothing more to do; the ones after it still flush.
func (ex *exec) execute(q *Query, hints [][]PatternHint, onCols func([]string) error) error {
	if err := ex.setup(q, hints); err != nil {
		return err
	}
	if err := onCols(ex.stages[len(ex.stages)-1].cols); err != nil {
		return err
	}
	err := error(errStopStream)
	if ex.stopped < 0 {
		err = ex.push(0, ex.stages[0].in.newRow())
	}
	for i := range ex.stages {
		if !ex.stages[i].blocking || (err == errStopStream && i < ex.stopped) {
			continue
		}
		if err == errStopStream {
			err = nil
		}
		if err != nil {
			return err
		}
		err = ex.flush(i)
	}
	if err == errStopStream {
		err = nil
	}
	return err
}

// push feeds one row into clause i.
func (ex *exec) push(i int, row Row) error {
	st := &ex.stages[i]
	switch t := st.clause.(type) {
	case *StartClause:
		return ex.pushStart(i, t, row, 0)
	case *MatchClause:
		matched := false
		err := ex.matchPatterns(row, t.Patterns, st.hints, edgeSet{}, func(r Row) error {
			st.rows++
			if err := ex.checkRows(st.rows); err != nil {
				return err
			}
			matched = true
			return ex.handOff(i, r)
		})
		if err != nil {
			return err
		}
		if !matched && t.Optional {
			return ex.handOff(i, ex.optionalNullRow(row, t))
		}
		return nil
	case *WhereClause:
		v, err := ex.evalExpr(t.Cond, row)
		if err != nil {
			return err
		}
		if !v.IsNull() && v.Truthy() {
			return ex.handOff(i, row)
		}
		return nil
	}
	if st.blocking {
		st.buf = append(st.buf, row.clone())
		return nil
	}
	return ex.project(i, row)
}

// pushStart binds START item k and every later item, one seed at a
// time, in the order the items are written.
func (ex *exec) pushStart(i int, sc *StartClause, row Row, k int) error {
	if k == len(sc.Items) {
		return ex.handOff(i, row)
	}
	it := &ex.stages[i].starts[k]
	prev := row.vals[it.slot]
	var err error
	for _, id := range it.ids {
		it.rows++
		if err = ex.checkRows(it.rows); err != nil {
			break
		}
		row.vals[it.slot] = NodeVal(id)
		if err = ex.pushStart(i, sc, row, k+1); err != nil {
			break
		}
	}
	row.vals[it.slot] = prev
	return err
}

// project applies a streaming projection to one row: evaluate the
// items, drop DISTINCT repeats, skip, limit. Once LIMIT's last row has
// been handed downstream it stops upstream enumeration.
func (ex *exec) project(i int, row Row) error {
	st := &ex.stages[i]
	vals := st.vals
	if vals == nil {
		vals = make([]Val, len(st.proj.Items))
		if i < len(ex.stages)-1 {
			// WITH copies the values into a row, so one buffer serves
			// every row; RETURN hands its slice to the sink.
			st.vals = vals
		}
	}
	for j, it := range st.proj.Items {
		v, err := ex.evalExpr(it.Expr, row)
		if err != nil {
			return err
		}
		vals[j] = v
	}
	if st.seen != nil {
		k := rowKey(vals)
		if st.seen[k] {
			return nil
		}
		st.seen[k] = true
	}
	if st.skip > 0 {
		st.skip--
		return nil
	}
	if st.limit > 0 {
		st.limit--
	}
	err := ex.emit(i, vals, Row{})
	if err == nil && st.limit == 0 {
		ex.stopped = i
		return errStopStream
	}
	return err
}

// flush runs blocking stage i over its buffered input and feeds the
// projected rows downstream.
func (ex *exec) flush(i int) error {
	st := &ex.stages[i]
	if ex.count {
		ex.switchTo(i)
	}
	rows, err := ex.applyProjection(st.buf, st.proj, st.colScope)
	st.buf = nil
	if err != nil {
		return err
	}
	for _, r := range rows {
		if err := ex.emit(i, nil, r); err != nil {
			return err
		}
	}
	return nil
}

// emit hands one projected row from WITH or RETURN i downstream, given
// as values in column order or as a row of the stage's output scope: to
// the sink after the final RETURN, to the next clause otherwise.
func (ex *exec) emit(i int, vals []Val, row Row) error {
	st := &ex.stages[i]
	if i < len(ex.stages)-1 {
		if vals != nil {
			if st.next.vals == nil {
				st.next = st.colScope.newRow()
			}
			row = st.next
			for j, s := range st.colSlots {
				row.vals[s] = vals[j]
			}
		}
		return ex.handOff(i, row)
	}
	if vals == nil {
		vals = make([]Val, len(st.cols))
		for j, s := range st.colSlots {
			vals[j] = row.vals[s]
		}
	}
	st.out++
	return ex.sink(vals)
}

// handOff passes a row from clause i to clause i+1. In a PROFILE or
// traced run it also moves the accounting: steps (and, for PROFILE,
// time) since the last hand-off are charged to the clause that was
// working, so each clause carries the expansion it did itself.
func (ex *exec) handOff(i int, row Row) error {
	if !ex.count {
		return ex.push(i+1, row)
	}
	ex.stages[i].out++
	ex.switchTo(i + 1)
	err := ex.push(i+1, row)
	if err != nil && err != errStopStream && ex.failedAt < 0 {
		ex.failedAt = ex.cur
	}
	ex.switchTo(i)
	return err
}

// switchTo charges the work done since the last switch to the current
// clause and makes clause j current.
func (ex *exec) switchTo(j int) {
	st := &ex.stages[ex.cur]
	st.hits += ex.steps - ex.mark
	ex.mark = ex.steps
	if ex.clock {
		now := time.Now()
		st.nanos += int64(now.Sub(ex.markT))
		ex.markT = now
	}
	ex.cur = j
}

// report turns the per-clause counters into PROFILE operators and
// clause.* spans. A failed run reports the clauses up to the one that
// failed, plus any later clause that had already charged steps, so the
// dbHits still sum to the steps taken.
func (ex *exec) report(prof *Profile, sp *trace.Span, start time.Time, err error) {
	if len(ex.stages) == 0 {
		return
	}
	ex.switchTo(ex.cur)
	last := len(ex.stages) - 1
	if err != nil {
		if ex.failedAt < 0 {
			ex.failedAt = ex.cur
		}
		for last > ex.failedAt && ex.stages[last].hits == 0 {
			last--
		}
	}
	for i := range ex.stages[:last+1] {
		st := &ex.stages[i]
		op, detail := operatorInfo(st.clause)
		if sp != nil {
			cs := sp.ChildSince("clause."+op, start,
				trace.Str("detail", detail),
				trace.Int("rows", st.out),
				trace.Int("dbHits", st.hits))
			if i == ex.failedAt {
				cs.SetError(err)
			}
			cs.End()
		}
		if prof != nil {
			prof.Ops = append(prof.Ops, OpProfile{
				Operator: op,
				Detail:   detail,
				Rows:     st.out,
				DBHits:   st.hits,
				Millis:   float64(st.nanos) / float64(time.Millisecond),
			})
		}
	}
}

// optionalNullRow extends row with nulls for every unbound variable an
// OPTIONAL MATCH would have bound.
func (ex *exec) optionalNullRow(row Row, mc *MatchClause) Row {
	r := row.clone()
	null := func(s int) {
		if s >= 0 && r.vals[s].Kind == valUnbound {
			r.vals[s] = nullVal
		}
	}
	for _, pat := range mc.Patterns {
		ps := ex.slotsOf(pat)
		for _, s := range ps.nodes {
			null(s)
		}
		for _, s := range ps.rels {
			null(s)
		}
		null(ps.path)
	}
	return r
}
