package query

import (
	"context"
	"fmt"
	"sort"
	"strings"
	"time"

	"frappe/internal/graph"
	"frappe/internal/model"
	"frappe/internal/obs/trace"
	"frappe/internal/traversal"
)

// Result is a query result table.
type Result struct {
	Columns []string
	Rows    [][]Val
	// Steps is how many pattern-expansion steps the query performed —
	// the same unit the MaxSteps budget is charged in.
	Steps int64
}

// Execute runs a parsed query over src. The context bounds execution: a
// deadline or cancellation aborts long-running pattern expansions (the
// paper aborted its Figure 6 comprehension query after 15 minutes).
func Execute(ctx context.Context, src graph.Source, q *Query) (*Result, error) {
	return ExecuteLimits(ctx, src, q, Limits{})
}

// ExecuteLimits runs a parsed query under resource budgets. A panic
// anywhere below (including typed corruption panics from a disk-backed
// source) is recovered into the returned error, so one bad query or one
// bad disk page cannot take down a serving process.
func ExecuteLimits(ctx context.Context, src graph.Source, q *Query, lim Limits) (*Result, error) {
	res, _, err := executeLimits(ctx, src, q, lim, false)
	return res, err
}

// executeLimits is the shared runner behind ExecuteLimits and
// ExecuteProfileLimits: panic recovery, metrics, optional tracing.
func executeLimits(ctx context.Context, src graph.Source, q *Query, lim Limits, profile bool) (res *Result, prof *Profile, err error) {
	start := time.Now()
	ex := &exec{src: src, ctx: ctx, limits: lim}
	ex.span = trace.FromContext(ctx).Child("query.execute", trace.Bool("interpreter", true))
	if profile {
		ex.prof = &Profile{}
	}
	defer func() {
		if r := recover(); r != nil {
			if e, ok := r.(error); ok {
				err = fmt.Errorf("cypher: query aborted: %w", e)
			} else {
				err = fmt.Errorf("cypher: query aborted: %v", r)
			}
			res = nil
		}
		millis := float64(time.Since(start)) / float64(time.Millisecond)
		recordQueryMetrics(res, err, millis, ex.steps)
		if ex.prof != nil {
			ex.prof.Steps = ex.steps
			ex.prof.Millis = millis
			if res != nil {
				ex.prof.Rows = int64(len(res.Rows))
			}
			prof = ex.prof
		}
		if ex.span != nil {
			ex.span.SetAttr(trace.Int("steps", ex.steps))
			if res != nil {
				ex.span.SetAttr(trace.Int("rows", int64(len(res.Rows))))
			}
			if err != nil {
				ex.span.SetError(err)
			}
			ex.span.End()
		}
	}()
	res, err = ex.run(q)
	if res != nil {
		res.Steps = ex.steps
	}
	return res, nil, err
}

// Run parses and executes a query text.
func Run(ctx context.Context, src graph.Source, text string) (*Result, error) {
	return RunLimits(ctx, src, text, Limits{})
}

// RunLimits parses and executes a query text under resource budgets.
func RunLimits(ctx context.Context, src graph.Source, text string, lim Limits) (*Result, error) {
	q, err := Parse(text)
	if err != nil {
		return nil, err
	}
	return ExecuteLimits(ctx, src, q, lim)
}

type exec struct {
	src    graph.Source
	ctx    context.Context
	limits Limits
	steps  int64
	prof   *Profile // nil unless PROFILE requested; hot paths never touch it
	// span is the executor's trace span (nil when the request is
	// untraced); run() hangs per-clause child spans off it.
	span *trace.Span
	// fastPred enables the visited-set fast path for reachability-shaped
	// WHERE pattern predicates. Only planned execution (internal/plan via
	// Env) turns it on; the plain interpreter stays Cypher-naive so
	// planned-vs-naive equivalence tests compare genuinely different
	// execution strategies.
	fastPred bool
}

// tick periodically checks the context and enforces the step budget; it
// is called on every pattern expansion so runaway variable-length
// matches stay abortable.
func (ex *exec) tick() error {
	ex.steps++
	if ex.limits.MaxSteps > 0 && ex.steps > ex.limits.MaxSteps {
		return &BudgetError{What: "steps", Limit: ex.limits.MaxSteps}
	}
	if ex.steps&1023 == 0 {
		if err := ex.ctx.Err(); err != nil {
			return err
		}
	}
	return nil
}

// checkRows enforces the row budget at every point where rows are
// materialised.
func (ex *exec) checkRows(n int) error {
	if ex.limits.MaxRows > 0 && n > ex.limits.MaxRows {
		return &BudgetError{What: "rows", Limit: int64(ex.limits.MaxRows)}
	}
	return nil
}

// Steps reports how many pattern expansions the last query performed.
func (ex *exec) Steps() int64 { return ex.steps }

func (ex *exec) run(q *Query) (*Result, error) {
	rows := []Row{{}}
	var result *Result
	for i, c := range q.Clauses {
		if result != nil {
			return nil, ex.errf("RETURN must be the final clause")
		}
		var err error
		stepsBefore := ex.steps
		var clauseStart time.Time
		if ex.prof != nil || ex.span != nil {
			clauseStart = time.Now()
		}
		switch t := c.(type) {
		case *StartClause:
			rows, err = ex.applyStart(rows, t)
		case *MatchClause:
			rows, err = ex.applyMatch(rows, t)
		case *WhereClause:
			rows, err = ex.applyWhere(rows, t)
		case *WithClause:
			rows, _, err = ex.applyProjection(rows, t.Items, t.Distinct, t.OrderBy, t.Skip, t.Limit)
		case *ReturnClause:
			var cols []string
			var projected []Row
			projected, cols, err = ex.applyProjection(rows, t.Items, t.Distinct, t.OrderBy, t.Skip, t.Limit)
			if err == nil {
				result = &Result{Columns: cols}
				for _, r := range projected {
					vals := make([]Val, len(cols))
					for j, c := range cols {
						vals[j] = r[c]
					}
					result.Rows = append(result.Rows, vals)
				}
			}
		}
		if ex.prof != nil || ex.span != nil {
			// Record the operator even when it errored: an aborted Match
			// still shows which clause burned the budget.
			op, detail := operatorInfo(c)
			out := int64(len(rows))
			if result != nil {
				out = int64(len(result.Rows))
			}
			if ex.span != nil {
				cs := ex.span.ChildSince("clause."+op, clauseStart,
					trace.Str("detail", detail),
					trace.Int("rows", out),
					trace.Int("dbHits", ex.steps-stepsBefore))
				if err != nil {
					cs.SetError(err)
				}
				cs.End()
			}
			if ex.prof != nil {
				ex.prof.Ops = append(ex.prof.Ops, OpProfile{
					Operator: op,
					Detail:   detail,
					Rows:     out,
					DBHits:   ex.steps - stepsBefore,
					Millis:   float64(time.Since(clauseStart)) / float64(time.Millisecond),
				})
			}
		}
		if err != nil {
			return nil, err
		}
		_ = i
	}
	if result == nil {
		return nil, ex.errf("query has no RETURN clause")
	}
	return result, nil
}

// startItemIDs resolves one START item to its seed node IDs.
func (ex *exec) startItemIDs(item StartItem) ([]graph.NodeID, error) {
	switch {
	case item.All:
		n := ex.src.NodeCount()
		ids := make([]graph.NodeID, n)
		for i := range ids {
			ids[i] = graph.NodeID(i)
		}
		return ids, nil
	case item.IndexName != "":
		if !strings.EqualFold(item.IndexName, "node_auto_index") {
			return nil, ex.errf("unknown index %q", item.IndexName)
		}
		return ex.src.Lookup(item.IndexQuery)
	default:
		var ids []graph.NodeID
		for _, id := range item.IDs {
			if id >= 0 && id < graph.NodeID(ex.src.NodeCount()) {
				ids = append(ids, id)
			}
		}
		return ids, nil
	}
}

func (ex *exec) applyStart(rows []Row, sc *StartClause) ([]Row, error) {
	for _, item := range sc.Items {
		ids, err := ex.startItemIDs(item)
		if err != nil {
			return nil, err
		}
		var next []Row
		for _, row := range rows {
			for _, id := range ids {
				if err := ex.checkRows(len(next) + 1); err != nil {
					return nil, err
				}
				r := row.clone()
				r[item.Var] = NodeVal(id)
				next = append(next, r)
			}
		}
		rows = next
	}
	return rows, nil
}

func (ex *exec) applyWhere(rows []Row, wc *WhereClause) ([]Row, error) {
	var out []Row
	for _, row := range rows {
		v, err := ex.evalExpr(wc.Cond, row)
		if err != nil {
			return nil, err
		}
		if !v.IsNull() && v.Truthy() {
			out = append(out, row)
		}
	}
	return out, nil
}

// --- MATCH ---

type edgeSet map[graph.EdgeID]bool

func (ex *exec) applyMatch(rows []Row, mc *MatchClause) ([]Row, error) {
	return ex.applyMatchHints(rows, mc, nil)
}

// applyMatchHints is applyMatch with optional planner hints, one per
// pattern (nil or short slices mean "no hint": naive behaviour).
func (ex *exec) applyMatchHints(rows []Row, mc *MatchClause, hints []PatternHint) ([]Row, error) {
	var out []Row
	for _, row := range rows {
		matched := false
		err := ex.matchPatterns(row, mc.Patterns, hints, edgeSet{}, func(r Row) error {
			if err := ex.checkRows(len(out) + 1); err != nil {
				return err
			}
			matched = true
			out = append(out, r)
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !matched && mc.Optional {
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
			out = append(out, r)
		}
	}
	return out, nil
}

// matchPatterns matches the pattern list in order, sharing relationship
// uniqueness across patterns of the same MATCH (Cypher semantics).
func (ex *exec) matchPatterns(row Row, pats []*Pattern, hints []PatternHint, used edgeSet, emit func(Row) error) error {
	if len(pats) == 0 {
		return emit(row)
	}
	var hint *PatternHint
	var rest []PatternHint
	if len(hints) > 0 {
		hint, rest = &hints[0], hints[1:]
	}
	return ex.matchOne(row, pats[0], hint, used, func(r Row) error {
		return ex.matchPatterns(r, pats[1:], rest, used, emit)
	})
}

// patternHolds evaluates a pattern predicate (WHERE (n)<-[...]-()).
func (ex *exec) patternHolds(pat *Pattern, row Row) (bool, error) {
	if ex.fastPred {
		if ok, handled, err := ex.reachabilityHolds(pat, row); handled {
			return ok, err
		}
	}
	found := false
	err := ex.matchOne(row, pat, nil, edgeSet{}, func(Row) error {
		found = true
		return errStopMatch
	})
	if err != nil && err != errStopMatch {
		return false, err
	}
	return found, nil
}

// reachabilityHolds decides a reachability-shaped pattern predicate —
// one variable-length relationship whose bindings cannot escape (no rel
// or path variable) anchored at >= 1 bound endpoint — with an
// early-exit visited-set BFS instead of path enumeration. An existence
// check needs one witness, and a simple path exists iff a BFS walk
// reaches the endpoint, so this is exact. handled is false when the
// pattern is not of that shape and the enumerating fallback must
// decide.
func (ex *exec) reachabilityHolds(pat *Pattern, row Row) (ok, handled bool, err error) {
	if pat.Shortest || pat.AllShortest || pat.PathVar != "" || len(pat.Rels) != 1 {
		return false, false, nil
	}
	rel := pat.Rels[0]
	if !rel.VarLen || rel.MinHops > 1 || rel.Var != "" {
		return false, false, nil
	}
	// Undirected walks can re-reach the start node only by reusing an
	// edge (s—x—s), which Cypher's relationship uniqueness forbids, so
	// BFS would over-claim start-to-start reachability. Directed closed
	// walks always contain a simple cycle through the start, and a
	// zero-hop minimum admits the start unconditionally, so those stay.
	if !rel.ToRight && !rel.ToLeft && rel.MinHops != 0 {
		return false, false, nil
	}
	left, right := pat.Nodes[0], pat.Nodes[1]
	leftID, leftBound, leftBad := boundNode(row, left)
	rightID, rightBound, rightBad := boundNode(row, right)
	if leftBad || rightBad {
		// A pattern variable bound to a non-node can never match.
		return false, true, nil
	}
	if !leftBound && !rightBound {
		return false, false, nil
	}

	// Walk from a bound endpoint; when only the right end is bound the
	// arrow directions flip because we traverse against them.
	start, startNP, targNP := leftID, left, right
	targID, targBound := rightID, rightBound
	outgoing, incoming := true, true
	if leftBound {
		switch {
		case rel.ToRight:
			outgoing, incoming = true, false
		case rel.ToLeft:
			outgoing, incoming = false, true
		}
	} else {
		start, startNP, targNP = rightID, right, left
		targID, targBound = 0, false
		switch {
		case rel.ToRight:
			outgoing, incoming = false, true
		case rel.ToLeft:
			outgoing, incoming = true, false
		}
	}
	if !ex.nodeMatches(startNP, start) {
		return false, true, nil
	}
	if targBound && !ex.nodeMatches(targNP, targID) {
		return false, true, nil
	}
	if rel.MinHops == 0 {
		if targBound {
			if targID == start {
				return true, true, nil
			}
		} else if ex.nodeMatches(targNP, start) {
			return true, true, nil
		}
	}

	opts := traversal.Options{MaxDepth: rel.MaxHops, Types: relTypeSet(rel)}
	switch {
	case outgoing && incoming:
		opts.Direction = traversal.Both
	case outgoing:
		opts.Direction = traversal.Out
	default:
		opts.Direction = traversal.In
	}
	var budgetErr error
	opts.EdgeFilter = func(e graph.EdgeID) bool {
		if budgetErr != nil {
			return false
		}
		if err := ex.tick(); err != nil {
			budgetErr = err
			return false
		}
		return ex.relPropsMatch(rel, e)
	}
	pred := func(n graph.NodeID) bool { return ex.nodeMatches(targNP, n) }
	if targBound {
		pred = func(n graph.NodeID) bool { return n == targID }
	}
	_, found, err := traversal.FindReachableCtx(ex.ctx, ex.src, start, opts, pred)
	if budgetErr != nil {
		return false, true, budgetErr
	}
	if err != nil {
		return false, true, err
	}
	return found, true, nil
}

// boundNode resolves a node pattern's variable in row: (id, true, false)
// when bound to a node, bad=true when bound to anything else (null
// included), in which case the pattern cannot match at all.
func boundNode(row Row, np *NodePattern) (id graph.NodeID, bound, bad bool) {
	if np.Var == "" {
		return 0, false, false
	}
	v, ok := row[np.Var]
	if !ok {
		return 0, false, false
	}
	if v.Kind != ValNode {
		return 0, false, true
	}
	return v.Node, true, false
}

// relTypeSet lowers a relationship pattern's type alternatives to a
// traversal type set (nil = all types).
func relTypeSet(rel *RelPattern) traversal.TypeSet {
	if len(rel.Types) == 0 {
		return nil
	}
	ts := traversal.TypeSet{}
	for _, t := range rel.Types {
		ts[model.EdgeType(strings.ToLower(t))] = true
	}
	return ts
}

// errStopMatch aborts enumeration early (pattern predicates need only one
// witness).
var errStopMatch = &Error{Msg: "stop"}

// matchOne enumerates all assignments of one linear pattern consistent
// with row, calling emit for each. The used set enforces relationship
// uniqueness; entries added along one solution path are removed on
// backtrack.
func (ex *exec) matchOne(row Row, pat *Pattern, hint *PatternHint, used edgeSet, emit func(Row) error) error {
	if pat.Shortest {
		return ex.matchShortest(row, pat, emit)
	}
	// Choose the anchor: the first node position whose variable is bound.
	anchor := -1
	for i, np := range pat.Nodes {
		if np.Var == "" {
			continue
		}
		if v, ok := row[np.Var]; ok && v.Kind == ValNode {
			anchor = i
			break
		}
	}

	// Job order: expand rightward from the anchor, then leftward (or
	// leftward first when the planner estimated that side cheaper).
	type job struct {
		relIdx   int
		knownPos int
		targPos  int
	}
	var jobs []job
	a := anchor
	if a < 0 {
		a = 0
		// Planner anchor hint: only meaningful when nothing is bound —
		// a bound variable always wins (one seed beats any scan).
		if hint != nil && hint.Anchor > 0 && hint.Anchor < len(pat.Nodes) {
			a = hint.Anchor
		}
	}
	right := func() {
		for i := a; i < len(pat.Rels); i++ {
			jobs = append(jobs, job{relIdx: i, knownPos: i, targPos: i + 1})
		}
	}
	left := func() {
		for i := a - 1; i >= 0; i-- {
			jobs = append(jobs, job{relIdx: i, knownPos: i + 1, targPos: i})
		}
	}
	if hint != nil && hint.LeftFirst {
		left()
		right()
	} else {
		right()
		left()
	}

	// nodeAt tracks the concrete node at each pattern position for the
	// current solution path (named or anonymous); edgesAt tracks the
	// matched edges per relationship position for path bindings.
	nodeAt := make([]graph.NodeID, len(pat.Nodes))
	for i := range nodeAt {
		nodeAt[i] = graph.InvalidID
	}
	edgesAt := make([][]Val, len(pat.Rels))

	var solve func(row Row, j int) error
	solve = func(row Row, j int) error {
		if j == len(jobs) {
			if pat.PathVar != "" {
				r := row.clone()
				r[pat.PathVar] = ex.buildPathVal(pat, nodeAt, edgesAt)
				return emit(r)
			}
			return emit(row)
		}
		jb := jobs[j]
		rel := pat.Rels[jb.relIdx]
		known := nodeAt[jb.knownPos]
		targNP := pat.Nodes[jb.targPos]

		// leftToRight is true when we traverse the relationship in its
		// arrow direction starting from the known end.
		var outgoing, incoming bool
		switch {
		case rel.ToRight:
			outgoing = jb.knownPos < jb.targPos
			incoming = !outgoing
		case rel.ToLeft:
			outgoing = jb.knownPos > jb.targPos
			incoming = !outgoing
		default:
			outgoing, incoming = true, true
		}

		accept := func(edges []Val, target graph.NodeID, r Row) error {
			if !ex.nodeMatches(targNP, target) {
				return nil
			}
			if targNP.Var != "" {
				if bound, ok := r[targNP.Var]; ok {
					if bound.Kind != ValNode || bound.Node != target {
						return nil
					}
				} else {
					r = r.clone()
					r[targNP.Var] = NodeVal(target)
				}
			}
			if rel.Var != "" {
				r = r.clone()
				if rel.VarLen {
					r[rel.Var] = ListVal(edges)
				} else {
					r[rel.Var] = edges[0]
				}
			}
			prev := nodeAt[jb.targPos]
			prevE := edgesAt[jb.relIdx]
			nodeAt[jb.targPos] = target
			edgesAt[jb.relIdx] = edges
			err := solve(r, j+1)
			nodeAt[jb.targPos] = prev
			edgesAt[jb.relIdx] = prevE
			return err
		}

		if !rel.VarLen {
			return ex.expandOne(known, rel, outgoing, incoming, used, func(e graph.EdgeID, n graph.NodeID) error {
				used[e] = true
				err := accept([]Val{EdgeVal(e)}, n, row)
				delete(used, e)
				return err
			})
		}

		// Closure rewrite (planner hint): emit each reachable endpoint
		// once via a visited-set BFS instead of enumerating every
		// edge-unique path — the paper's embedded-traversal trick applied
		// to Cypher execution. The planner only issues the hint when it
		// proved downstream multiplicity-invariance (internal/plan), and
		// the guards here keep it inert if a future caller hands a hint
		// to a pattern whose bindings or shared edge set would observe
		// the difference.
		if hint != nil && jb.relIdx < len(hint.Closure) && hint.Closure[jb.relIdx] &&
			rel.Var == "" && pat.PathVar == "" && len(used) == 0 &&
			(rel.ToRight || rel.ToLeft || rel.MinHops == 0) {
			if rel.MinHops == 0 {
				if err := accept(nil, known, row); err != nil {
					return err
				}
			}
			opts := traversal.Options{MaxDepth: rel.MaxHops, Types: relTypeSet(rel)}
			switch {
			case outgoing && incoming:
				opts.Direction = traversal.Both
			case outgoing:
				opts.Direction = traversal.Out
			default:
				opts.Direction = traversal.In
			}
			var budgetErr error
			opts.EdgeFilter = func(e graph.EdgeID) bool {
				if budgetErr != nil {
					return false
				}
				if err := ex.tick(); err != nil {
					budgetErr = err
					return false
				}
				return ex.relPropsMatch(rel, e)
			}
			ids, err := traversal.TransitiveClosureCtx(ex.ctx, ex.src, known, opts)
			if budgetErr != nil {
				return budgetErr
			}
			if err != nil {
				return err
			}
			for _, id := range ids {
				if rel.MinHops == 0 && id == known {
					// Already emitted by the zero-length match above.
					continue
				}
				if err := accept(nil, id, row); err != nil {
					return err
				}
			}
			return nil
		}

		// Variable-length: depth-first path enumeration with relationship
		// uniqueness. This is deliberately Cypher-faithful: every distinct
		// path is a distinct match, which blows up on dense call graphs
		// exactly as the paper's Figure 6 query did.
		var path []Val
		var dfs func(cur graph.NodeID, depth int) error
		dfs = func(cur graph.NodeID, depth int) error {
			if depth >= rel.MinHops && depth > 0 {
				if err := accept(append([]Val(nil), path...), cur, row); err != nil {
					return err
				}
			}
			if rel.MaxHops > 0 && depth >= rel.MaxHops {
				return nil
			}
			return ex.expandOne(cur, rel, outgoing, incoming, used, func(e graph.EdgeID, n graph.NodeID) error {
				used[e] = true
				path = append(path, EdgeVal(e))
				err := dfs(n, depth+1)
				path = path[:len(path)-1]
				delete(used, e)
				return err
			})
		}
		if rel.MinHops == 0 {
			// Zero-length match: target is the known node itself.
			if err := accept(nil, known, row); err != nil {
				return err
			}
		}
		return dfs(known, 0)
	}

	// Seed the anchor position.
	seed := func(row Row, id graph.NodeID) error {
		np := pat.Nodes[a]
		if !ex.nodeMatches(np, id) {
			return nil
		}
		r := row
		if np.Var != "" {
			if bound, ok := r[np.Var]; ok {
				if bound.Kind != ValNode || bound.Node != id {
					return nil
				}
			} else {
				r = r.clone()
				r[np.Var] = NodeVal(id)
			}
		}
		nodeAt[a] = id
		err := solve(r, 0)
		nodeAt[a] = graph.InvalidID
		return err
	}

	if anchor >= 0 {
		v := row[pat.Nodes[anchor].Var]
		return seed(row, v.Node)
	}
	ids, err := ex.scanCandidates(pat.Nodes[a])
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := ex.tick(); err != nil {
			return err
		}
		if err := seed(row, id); err != nil {
			return err
		}
	}
	return nil
}

// buildPathVal assembles the matched path value left-to-right from the
// per-position node/edge assignments.
func (ex *exec) buildPathVal(pat *Pattern, nodeAt []graph.NodeID, edgesAt [][]Val) Val {
	p := traversal.Path{Start: nodeAt[0]}
	cur := nodeAt[0]
	for i := range pat.Rels {
		for _, ev := range edgesAt[i] {
			from, to, _ := ex.src.EdgeEnds(ev.Edge)
			next := to
			if from != cur {
				next = from
			}
			p.Steps = append(p.Steps, traversal.Step{Edge: ev.Edge, Node: next})
			cur = next
		}
	}
	return PathVal(p)
}

// matchShortest evaluates shortestPath()/allShortestPaths(): both
// endpoints must be bound nodes; the single relationship pattern drives
// a breadth-first search through the embedded traversal machinery.
func (ex *exec) matchShortest(row Row, pat *Pattern, emit func(Row) error) error {
	endpoint := func(np *NodePattern) (graph.NodeID, error) {
		if np.Var == "" {
			return 0, ex.errf("shortestPath endpoints must be named variables")
		}
		v, ok := row[np.Var]
		if !ok || v.Kind != ValNode {
			return 0, ex.errf("shortestPath endpoint %q is not a bound node", np.Var)
		}
		return v.Node, nil
	}
	from, err := endpoint(pat.Nodes[0])
	if err != nil {
		return err
	}
	to, err := endpoint(pat.Nodes[1])
	if err != nil {
		return err
	}
	rel := pat.Rels[0]
	opts := traversal.Options{}
	if len(rel.Types) > 0 {
		ts := traversal.TypeSet{}
		for _, t := range rel.Types {
			ts[model.EdgeType(strings.ToLower(t))] = true
		}
		opts.Types = ts
	}
	start, goal := from, to
	switch {
	case rel.ToRight:
		opts.Direction = traversal.Out
	case rel.ToLeft:
		opts.Direction = traversal.Out
		start, goal = to, from
	default:
		opts.Direction = traversal.Both
	}
	if rel.VarLen && rel.MaxHops > 0 {
		opts.MaxDepth = rel.MaxHops
	}
	if !rel.VarLen {
		opts.MaxDepth = 1
	}
	p, ok := traversal.ShortestPath(ex.src, start, goal, opts)
	if !ok || (rel.VarLen && p.Len() < rel.MinHops) {
		return nil
	}
	emitPath := func(p traversal.Path) error {
		r := row.clone()
		if pat.PathVar != "" {
			r[pat.PathVar] = PathVal(p)
		}
		if rel.Var != "" {
			edges := make([]Val, p.Len())
			for i, s := range p.Steps {
				edges[i] = EdgeVal(s.Edge)
			}
			r[rel.Var] = ListVal(edges)
		}
		return emit(r)
	}
	if !pat.AllShortest {
		return emitPath(p)
	}
	// allShortestPaths: enumerate every path of the minimum length.
	minLen := p.Len()
	var emitErr error
	traversal.AllPaths(ex.src, start, goal, minLen, opts, func(q traversal.Path) bool {
		if q.Len() != minLen {
			return true
		}
		if err := emitPath(q); err != nil {
			emitErr = err
			return false
		}
		return true
	})
	return emitErr
}

// expandOne visits each edge incident to `known` that satisfies the
// relationship pattern and is not yet used, yielding the edge and the
// neighbour node.
func (ex *exec) expandOne(known graph.NodeID, rel *RelPattern, outgoing, incoming bool, used edgeSet, fn func(graph.EdgeID, graph.NodeID) error) error {
	try := func(edges []graph.EdgeID, out bool) error {
		for _, e := range edges {
			if err := ex.tick(); err != nil {
				return err
			}
			if used[e] {
				continue
			}
			from, to, typ := ex.src.EdgeEnds(e)
			if !relTypeMatches(rel, typ) {
				continue
			}
			if !ex.relPropsMatch(rel, e) {
				continue
			}
			n := to
			if !out {
				n = from
			}
			if err := fn(e, n); err != nil {
				return err
			}
		}
		return nil
	}
	if outgoing {
		if err := try(ex.src.Out(known), true); err != nil {
			return err
		}
	}
	if incoming {
		if err := try(ex.src.In(known), false); err != nil {
			return err
		}
	}
	return nil
}

func relTypeMatches(rel *RelPattern, typ model.EdgeType) bool {
	if len(rel.Types) == 0 {
		return true
	}
	for _, t := range rel.Types {
		if strings.EqualFold(t, string(typ)) {
			return true
		}
	}
	return false
}

func (ex *exec) relPropsMatch(rel *RelPattern, e graph.EdgeID) bool {
	for _, pm := range rel.Props {
		v, ok := ex.src.EdgeProp(e, pm.Key)
		if !ok || !v.Equal(pm.Val) {
			return false
		}
	}
	return true
}

func (ex *exec) nodeMatches(np *NodePattern, id graph.NodeID) bool {
	for _, l := range np.Labels {
		if !ex.src.NodeHasLabel(id, l) {
			return false
		}
	}
	for _, pm := range np.Props {
		v, ok := ex.src.NodeProp(id, pm.Key)
		if !ok || !v.Equal(pm.Val) {
			return false
		}
	}
	return true
}

// scanCandidates picks anchor candidates for an unbound node pattern:
// auto-index lookup when an indexed property or a concrete type label is
// available, full node scan otherwise (the planner behaviour that Cypher
// 1.x exhibited, and the cost model behind ablation A4).
func (ex *exec) scanCandidates(np *NodePattern) ([]graph.NodeID, error) {
	for _, pm := range np.Props {
		if pm.Val.Kind() != graph.KindString {
			continue
		}
		if isIndexedPropKey(pm.Key) {
			return ex.src.Lookup(pm.Key + ": \"" + pm.Val.AsString() + "\"")
		}
	}
	for _, l := range np.Labels {
		if isConcreteNodeType(l) {
			return ex.src.Lookup("TYPE: \"" + l + "\"")
		}
	}
	n := ex.src.NodeCount()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	return ids, nil
}

func isIndexedPropKey(key string) bool {
	switch strings.ToUpper(key) {
	case model.PropShortName, model.PropName, model.PropLongName, model.PropType:
		return true
	}
	return false
}

func isConcreteNodeType(label string) bool {
	for _, t := range model.AllNodeTypes {
		if string(t) == label {
			return true
		}
	}
	return false
}

// --- projection ---

func (ex *exec) applyProjection(rows []Row, items []ReturnItem, distinct bool, order []OrderKey, skipE, limitE Expr) ([]Row, []string, error) {
	cols := make([]string, len(items))
	for i, it := range items {
		cols[i] = it.Alias
	}

	aggregated := false
	for _, it := range items {
		if isAggregate(it.Expr) {
			aggregated = true
			break
		}
	}

	var projected []Row
	if aggregated {
		// Group rows by the values of non-aggregate items.
		type group struct {
			keyVals map[string]Val
			rows    []Row
		}
		groups := make(map[string]*group)
		var orderKeys []string
		for _, row := range rows {
			var sb strings.Builder
			keyVals := make(map[string]Val)
			for i, it := range items {
				if isAggregate(it.Expr) {
					continue
				}
				v, err := ex.evalExpr(it.Expr, row)
				if err != nil {
					return nil, nil, err
				}
				keyVals[cols[i]] = v
				v.key(&sb)
				sb.WriteByte('|')
			}
			k := sb.String()
			grp, ok := groups[k]
			if !ok {
				grp = &group{keyVals: keyVals}
				groups[k] = grp
				orderKeys = append(orderKeys, k)
			}
			grp.rows = append(grp.rows, row)
		}
		if len(rows) == 0 && allAggregates(items) {
			// Aggregates over zero rows produce one row (count(*) = 0).
			groups[""] = &group{keyVals: map[string]Val{}}
			orderKeys = append(orderKeys, "")
		}
		for _, k := range orderKeys {
			grp := groups[k]
			out := make(Row, len(items))
			for i, it := range items {
				if isAggregate(it.Expr) {
					v, err := ex.evalAggregate(it.Expr, grp.rows)
					if err != nil {
						return nil, nil, err
					}
					out[cols[i]] = v
				} else {
					out[cols[i]] = grp.keyVals[cols[i]]
				}
			}
			projected = append(projected, out)
		}
	} else {
		for _, row := range rows {
			out := make(Row, len(items))
			for i, it := range items {
				v, err := ex.evalExpr(it.Expr, row)
				if err != nil {
					return nil, nil, err
				}
				out[cols[i]] = v
			}
			projected = append(projected, out)
		}
	}

	if distinct {
		seen := make(map[string]bool)
		var dedup []Row
		for _, r := range projected {
			var sb strings.Builder
			for _, c := range cols {
				r[c].key(&sb)
				sb.WriteByte('|')
			}
			k := sb.String()
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, r)
		}
		projected = dedup
	}

	if len(order) > 0 {
		var evalErr error
		sort.SliceStable(projected, func(i, j int) bool {
			for _, ok := range order {
				vi := ex.evalOrderKey(ok.Expr, projected[i], &evalErr)
				vj := ex.evalOrderKey(ok.Expr, projected[j], &evalErr)
				c := compareVals(vi, vj)
				if c == 0 {
					continue
				}
				if ok.Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
		if evalErr != nil {
			return nil, nil, evalErr
		}
	}

	if skipE != nil {
		n, err := ex.evalIntConst(skipE)
		if err != nil {
			return nil, nil, err
		}
		if int(n) < len(projected) {
			projected = projected[n:]
		} else {
			projected = nil
		}
	}
	if limitE != nil {
		n, err := ex.evalIntConst(limitE)
		if err != nil {
			return nil, nil, err
		}
		if int64(len(projected)) > n {
			projected = projected[:n]
		}
	}
	return projected, cols, nil
}

func allAggregates(items []ReturnItem) bool {
	for _, it := range items {
		if !isAggregate(it.Expr) {
			return false
		}
	}
	return len(items) > 0
}

// evalOrderKey evaluates an ORDER BY key against a projected row. A key
// whose text matches a projected column uses that column; otherwise
// unknown variables order as null rather than failing, so ORDER BY works
// over aggregated output.
func (ex *exec) evalOrderKey(e Expr, row Row, errOut *error) Val {
	if v, ok := row[e.Text()]; ok {
		return v
	}
	v, err := ex.evalExpr(e, row)
	if err != nil {
		var unknown *unknownVarError
		if !errorsAs(err, &unknown) && *errOut == nil {
			*errOut = err
		}
		return nullVal
	}
	return v
}

func errorsAs(err error, target **unknownVarError) bool {
	u, ok := err.(*unknownVarError)
	if ok {
		*target = u
	}
	return ok
}

func (ex *exec) evalIntConst(e Expr) (int64, error) {
	v, err := ex.evalExpr(e, Row{})
	if err != nil {
		return 0, err
	}
	if v.Kind != ValScalar || v.Scalar.Kind() != graph.KindInt {
		return 0, ex.errf("SKIP/LIMIT must be an integer")
	}
	n := v.Scalar.AsInt()
	if n < 0 {
		return 0, ex.errf("SKIP/LIMIT must be non-negative")
	}
	return n, nil
}

// compareVals orders values for ORDER BY: nulls sort last, scalars by
// value, entities by ID, lists lexicographically, mixed kinds by kind.
func compareVals(a, b Val) int {
	if a.IsNull() && b.IsNull() {
		return 0
	}
	if a.IsNull() {
		return 1
	}
	if b.IsNull() {
		return -1
	}
	if a.Kind != b.Kind {
		return int(a.Kind) - int(b.Kind)
	}
	switch a.Kind {
	case ValScalar:
		if c, ok := a.Scalar.Compare(b.Scalar); ok {
			return c
		}
		// Incomparable scalars (string vs numeric): numerics sort before
		// strings. Booleans share the numeric rank because Compare treats
		// them as numbers — ranking them separately would create ordering
		// cycles (int < bool numerically but string fallback in between).
		return scalarRank(a.Scalar.Kind()) - scalarRank(b.Scalar.Kind())
	case ValNode:
		// Explicit comparison, not int(a-b): the subtraction overflows
		// for IDs on opposite extremes (and truncates on 32-bit ints),
		// flipping the sign and corrupting ORDER BY / DISTINCT order.
		return compareIDs(int64(a.Node), int64(b.Node))
	case ValEdge:
		return compareIDs(int64(a.Edge), int64(b.Edge))
	case ValList:
		for i := 0; i < len(a.List) && i < len(b.List); i++ {
			if c := compareVals(a.List[i], b.List[i]); c != 0 {
				return c
			}
		}
		return len(a.List) - len(b.List)
	}
	return 0
}

// compareIDs three-way-compares entity IDs without overflow.
func compareIDs(a, b int64) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	}
	return 0
}

// scalarRank orders incomparable scalar kinds: numerics (int, bool)
// before strings.
func scalarRank(k graph.Kind) int {
	switch k {
	case graph.KindInt, graph.KindBool:
		return 1
	case graph.KindString:
		return 2
	}
	return 0
}
