package query

import (
	"context"
	"errors"
	"sort"
	"strings"
	"time"

	"frappe/internal/graph"
	"frappe/internal/model"
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

// ExecuteLimits runs a parsed query naively under resource budgets and
// collects its rows into a Result. Panics below, such as a disk store's
// typed corruption panics, come back as the returned error.
func ExecuteLimits(ctx context.Context, src graph.Source, q *Query, lim Limits) (*Result, error) {
	return ExecuteHints(ctx, src, q, lim, nil, false, nil)
}

// ExecuteHints is the materialized surface of ExecuteStreamFunc: it
// collects the rows of one execution into a Result. The parameters are
// ExecuteStreamFunc's; on failure the Result is nil and a non-nil prof
// still holds the partial trace.
func ExecuteHints(ctx context.Context, src graph.Source, q *Query, lim Limits, hints [][]PatternHint, fastPred bool, prof *Profile) (*Result, error) {
	res := &Result{}
	steps, err := ExecuteStreamFunc(ctx, src, q, lim, hints, fastPred, prof, res.setColumns, res.addRow)
	if err != nil {
		return nil, err
	}
	res.Steps = steps
	return res, nil
}

func (r *Result) setColumns(cols []string) error {
	r.Columns = cols
	return nil
}

func (r *Result) addRow(row []Val) error {
	r.Rows = append(r.Rows, row)
	return nil
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

// exec is one run's state: the source, budgets and step count the match
// machinery charges, and the clause pipeline (pipeline.go).
type exec struct {
	src    graph.Source
	ctx    context.Context
	limits Limits
	steps  int64
	// fastPred enables the visited-set fast path for reachability-shaped
	// WHERE pattern predicates. Only planned execution turns it on; naive
	// runs stay Cypher-faithful so planned-vs-naive equivalence tests
	// compare genuinely different execution strategies.
	fastPred bool

	stages []clauseState
	// pats holds the slots setup resolved for every pattern of the
	// query, MATCH patterns and pattern predicates alike.
	pats map[*Pattern]*patSlots
	sink RowSink
	// stopped is the last clause whose LIMIT has been satisfied (-1:
	// none): no clause before it needs another row.
	stopped int

	// Per-clause accounting, kept only by PROFILE (count and clock) and
	// traced (count) runs: the clause currently working, the step count
	// and time at the last hand-off, and the clause an error came from.
	count, clock bool
	cur          int
	mark         int64
	markT        time.Time
	failedAt     int
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

// checkRows enforces the row budget at every point where a clause
// produces a row.
func (ex *exec) checkRows(n int) error {
	if ex.limits.MaxRows > 0 && n > ex.limits.MaxRows {
		return &BudgetError{What: "rows", Limit: int64(ex.limits.MaxRows)}
	}
	return nil
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

// --- MATCH ---

type edgeSet map[graph.EdgeID]bool

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
	if !ClosureShape(pat) {
		return false, false, nil
	}
	rel := pat.Rels[0]
	left, right := pat.Nodes[0], pat.Nodes[1]
	ps := ex.slotsOf(pat)
	leftID, leftBound, leftBad := boundNode(row, ps.nodes[0])
	rightID, rightBound, rightBad := boundNode(row, ps.nodes[1])
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

	var budgetErr error
	opts := ex.closureOpts(rel, outgoing, incoming, &budgetErr)
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

// ClosureShape reports whether a pattern's endpoints can be decided by
// a visited-set traversal instead of path enumeration: one
// variable-length relationship, minimum depth <= 1 (a larger minimum
// constrains path length, which BFS shortest distance cannot decide),
// and no relationship or path binding that would observe individual
// paths. Undirected expansions are excluded unless the minimum is zero:
// a BFS walk can re-reach the start node only by reusing the edge it
// left on (s—x—s), which Cypher's relationship uniqueness forbids, so
// the endpoint sets differ at exactly the start node. Directed closed
// walks always contain a simple cycle through the start, and a
// zero-hop minimum admits the start unconditionally, so both of those
// remain exact.
func ClosureShape(pat *Pattern) bool {
	if pat.Shortest || pat.AllShortest || pat.PathVar != "" || len(pat.Rels) != 1 {
		return false
	}
	rel := pat.Rels[0]
	if !rel.VarLen || rel.MinHops > 1 || rel.Var != "" {
		return false
	}
	return rel.ToRight || rel.ToLeft || rel.MinHops == 0
}

// closureOpts lowers a variable-length relationship to visited-set
// traversal options. The edge filter charges every edge to the step
// budget and records the first budget error in *budgetErr.
func (ex *exec) closureOpts(rel *RelPattern, outgoing, incoming bool, budgetErr *error) traversal.Options {
	opts := traversal.Options{MaxDepth: rel.MaxHops, Types: relTypeSet(rel)}
	switch {
	case outgoing && incoming:
		opts.Direction = traversal.Both
	case outgoing:
		opts.Direction = traversal.Out
	default:
		opts.Direction = traversal.In
	}
	opts.EdgeFilter = func(e graph.EdgeID) bool {
		if *budgetErr != nil {
			return false
		}
		if err := ex.tick(); err != nil {
			*budgetErr = err
			return false
		}
		return ex.relPropsMatch(rel, e)
	}
	return opts
}

// boundNode resolves the node variable in row slot s (-1: anonymous):
// (id, true, false) when bound to a node, bad=true when bound to
// anything else (null included), in which case the pattern cannot match
// at all.
func boundNode(row Row, s int) (id graph.NodeID, bound, bad bool) {
	if s < 0 {
		return 0, false, false
	}
	v := row.vals[s]
	if v.Kind == valUnbound {
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

// patSlots are one pattern's variables resolved to slots of the scope
// it runs in; -1 marks an anonymous position.
type patSlots struct {
	nodes []int
	rels  []int
	path  int
}

// slotsOf returns the slots setup resolved for pat.
func (ex *exec) slotsOf(pat *Pattern) *patSlots {
	ps := ex.pats[pat]
	if ps == nil {
		panic(&Error{Msg: "pattern " + patternText(pat) + " has no resolved variables"})
	}
	return ps
}

// bind binds slot s (-1: anonymous) to node id unless it is bound
// already, in which case the binding must be that node. It reports
// whether the node fits and whether this call bound the slot, so the
// caller can unbind it on backtrack.
func bind(row Row, s int, id graph.NodeID) (fits, bound bool) {
	if s < 0 {
		return true, false
	}
	if cur := row.vals[s]; cur.Kind != valUnbound {
		return cur.Kind == ValNode && cur.Node == id, false
	}
	row.vals[s] = NodeVal(id)
	return true, true
}

// matchOne enumerates all assignments of one linear pattern consistent
// with row, calling emit for each. Bindings are made in row's slots and
// undone on backtrack, so emit sees row bound only for the duration of
// the call. The used set enforces relationship uniqueness; entries
// added along one solution path are removed on backtrack.
func (ex *exec) matchOne(row Row, pat *Pattern, hint *PatternHint, used edgeSet, emit func(Row) error) error {
	ps := ex.slotsOf(pat)
	if pat.Shortest {
		return ex.matchShortest(row, pat, ps, emit)
	}
	// Choose the anchor: the first node position whose variable is bound.
	anchor := -1
	for i, s := range ps.nodes {
		if s >= 0 && row.vals[s].Kind == ValNode {
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
	// matched edges per relationship position, kept only for a path
	// binding.
	nodeAt := make([]graph.NodeID, len(pat.Nodes))
	for i := range nodeAt {
		nodeAt[i] = graph.InvalidID
	}
	var edgesAt [][]Val
	if ps.path >= 0 {
		edgesAt = make([][]Val, len(pat.Rels))
	}

	var solve func(j int) error
	solve = func(j int) error {
		if j == len(jobs) {
			if ps.path >= 0 {
				prev := row.vals[ps.path]
				row.vals[ps.path] = ex.buildPathVal(pat, nodeAt, edgesAt)
				err := emit(row)
				row.vals[ps.path] = prev
				return err
			}
			return emit(row)
		}
		jb := jobs[j]
		rel := pat.Rels[jb.relIdx]
		known := nodeAt[jb.knownPos]
		targNP := pat.Nodes[jb.targPos]
		targSlot, relSlot := ps.nodes[jb.targPos], ps.rels[jb.relIdx]
		// A relationship or path binding observes the matched edges;
		// otherwise nothing reads them.
		keepEdges := relSlot >= 0 || ps.path >= 0

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

		accept := func(edges []Val, target graph.NodeID) error {
			if !ex.nodeMatches(targNP, target) {
				return nil
			}
			fits, bound := bind(row, targSlot, target)
			if !fits {
				return nil
			}
			var prevRel Val
			if relSlot >= 0 {
				prevRel = row.vals[relSlot]
				if rel.VarLen {
					row.vals[relSlot] = ListVal(edges)
				} else {
					row.vals[relSlot] = edges[0]
				}
			}
			prev := nodeAt[jb.targPos]
			nodeAt[jb.targPos] = target
			if edgesAt != nil {
				edgesAt[jb.relIdx] = edges
			}
			err := solve(j + 1)
			nodeAt[jb.targPos] = prev
			if relSlot >= 0 {
				row.vals[relSlot] = prevRel
			}
			if bound {
				row.vals[targSlot] = unboundVal
			}
			return err
		}

		if !rel.VarLen {
			return ex.expandOne(known, rel, outgoing, incoming, used, func(e graph.EdgeID, n graph.NodeID) error {
				var edges []Val
				if keepEdges {
					edges = []Val{EdgeVal(e)}
				}
				used[e] = true
				err := accept(edges, n)
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
			ClosureShape(pat) && len(used) == 0 {
			if rel.MinHops == 0 {
				if err := accept(nil, known); err != nil {
					return err
				}
			}
			var budgetErr error
			opts := ex.closureOpts(rel, outgoing, incoming, &budgetErr)
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
				if err := accept(nil, id); err != nil {
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
				var edges []Val
				if keepEdges {
					edges = append([]Val(nil), path...)
				}
				if err := accept(edges, cur); err != nil {
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
			if err := accept(nil, known); err != nil {
				return err
			}
		}
		return dfs(known, 0)
	}

	// Seed the anchor position.
	seed := func(id graph.NodeID) error {
		if !ex.nodeMatches(pat.Nodes[a], id) {
			return nil
		}
		fits, bound := bind(row, ps.nodes[a], id)
		if !fits {
			return nil
		}
		nodeAt[a] = id
		err := solve(0)
		nodeAt[a] = graph.InvalidID
		if bound {
			row.vals[ps.nodes[a]] = unboundVal
		}
		return err
	}

	if anchor >= 0 {
		return seed(row.vals[ps.nodes[anchor]].Node)
	}
	ids, err := ex.scanCandidates(pat.Nodes[a])
	if err != nil {
		return err
	}
	for _, id := range ids {
		if err := ex.tick(); err != nil {
			return err
		}
		if err := seed(id); err != nil {
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
func (ex *exec) matchShortest(row Row, pat *Pattern, ps *patSlots, emit func(Row) error) error {
	endpoint := func(i int) (graph.NodeID, error) {
		np := pat.Nodes[i]
		if np.Var == "" {
			return 0, ex.errf("shortestPath endpoints must be named variables")
		}
		v := row.vals[ps.nodes[i]]
		if v.Kind != ValNode {
			return 0, ex.errf("shortestPath endpoint %q is not a bound node", np.Var)
		}
		return v.Node, nil
	}
	from, err := endpoint(0)
	if err != nil {
		return err
	}
	to, err := endpoint(1)
	if err != nil {
		return err
	}
	rel := pat.Rels[0]
	opts := traversal.Options{Types: relTypeSet(rel)}
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
		if ps.path >= 0 {
			r.vals[ps.path] = PathVal(p)
		}
		if s := ps.rels[0]; s >= 0 {
			edges := make([]Val, p.Len())
			for i, st := range p.Steps {
				edges[i] = EdgeVal(st.Edge)
			}
			r.vals[s] = ListVal(edges)
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
	if pm := IndexedProp(np); pm != nil {
		return ex.src.Lookup(pm.Key + ": \"" + pm.Val.AsString() + "\"")
	}
	if l := ConcreteLabel(np); l != "" {
		return ex.src.Lookup("TYPE: \"" + l + "\"")
	}
	n := ex.src.NodeCount()
	ids := make([]graph.NodeID, n)
	for i := range ids {
		ids[i] = graph.NodeID(i)
	}
	return ids, nil
}

// IndexedProp returns the first string-valued property of np that the
// auto-index serves, or nil. scanCandidates seeds from it, and the
// planner's cost model prices that seed.
func IndexedProp(np *NodePattern) *PropMatch {
	for i, pm := range np.Props {
		if pm.Val.Kind() != graph.KindString {
			continue
		}
		switch strings.ToUpper(pm.Key) {
		case model.PropShortName, model.PropName, model.PropLongName, model.PropType:
			return &np.Props[i]
		}
	}
	return nil
}

// ConcreteLabel returns the first label of np that is a concrete node
// type (servable by a TYPE lookup), or "".
func ConcreteLabel(np *NodePattern) string {
	for _, l := range np.Labels {
		for _, t := range model.AllNodeTypes {
			if string(t) == l {
				return l
			}
		}
	}
	return ""
}

// --- projection ---

// applyProjection runs a projection over its whole input: group and
// aggregate, DISTINCT, ORDER BY, SKIP, LIMIT. The projected rows are
// rows of out, with column j in slot out.slot(p.Items[j].Alias).
func (ex *exec) applyProjection(rows []Row, p *ReturnClause, out *scope) ([]Row, error) {
	items := p.Items
	colSlots := make([]int, len(items))
	for i, it := range items {
		colSlots[i] = out.slot(it.Alias)
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
		// Group rows by the values of non-aggregate items; a group's
		// output row holds those values until the aggregates fill in.
		type group struct {
			out  Row
			rows []Row
		}
		groups := make(map[string]*group)
		var order []*group
		var groupVals []Val
		for _, row := range rows {
			groupVals = groupVals[:0]
			for _, it := range items {
				if isAggregate(it.Expr) {
					continue
				}
				v, err := ex.evalExpr(it.Expr, row)
				if err != nil {
					return nil, err
				}
				groupVals = append(groupVals, v)
			}
			k := rowKey(groupVals)
			grp, ok := groups[k]
			if !ok {
				grp = &group{out: out.newRow()}
				j := 0
				for i, it := range items {
					if !isAggregate(it.Expr) {
						grp.out.vals[colSlots[i]] = groupVals[j]
						j++
					}
				}
				groups[k] = grp
				order = append(order, grp)
			}
			grp.rows = append(grp.rows, row)
		}
		if len(rows) == 0 && allAggregates(items) {
			// Aggregates over zero rows produce one row (count(*) = 0).
			order = append(order, &group{out: out.newRow()})
		}
		for _, grp := range order {
			for i, it := range items {
				if isAggregate(it.Expr) {
					v, err := ex.evalAggregate(it.Expr, grp.rows)
					if err != nil {
						return nil, err
					}
					grp.out.vals[colSlots[i]] = v
				}
			}
			projected = append(projected, grp.out)
		}
	} else {
		for _, row := range rows {
			r := out.newRow()
			for i, it := range items {
				v, err := ex.evalExpr(it.Expr, row)
				if err != nil {
					return nil, err
				}
				r.vals[colSlots[i]] = v
			}
			projected = append(projected, r)
		}
	}

	if p.Distinct {
		seen := make(map[string]bool)
		var dedup []Row
		vals := make([]Val, len(items))
		for _, r := range projected {
			for j, s := range colSlots {
				vals[j] = r.vals[s]
			}
			k := rowKey(vals)
			if seen[k] {
				continue
			}
			seen[k] = true
			dedup = append(dedup, r)
		}
		projected = dedup
	}

	if len(p.OrderBy) > 0 {
		var evalErr error
		sort.SliceStable(projected, func(i, j int) bool {
			for _, ok := range p.OrderBy {
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
			return nil, evalErr
		}
	}

	if p.Skip != nil {
		n, err := ex.evalIntConst(p.Skip)
		if err != nil {
			return nil, err
		}
		if int(n) < len(projected) {
			projected = projected[n:]
		} else {
			projected = nil
		}
	}
	if p.Limit != nil {
		n, err := ex.evalIntConst(p.Limit)
		if err != nil {
			return nil, err
		}
		if int64(len(projected)) > n {
			projected = projected[:n]
		}
	}
	return projected, nil
}

// rowKey renders the canonical DISTINCT / grouping key of a value
// tuple.
func rowKey(vals []Val) string {
	var sb strings.Builder
	for _, v := range vals {
		v.key(&sb)
		sb.WriteByte('|')
	}
	return sb.String()
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
	if v, ok := row.get(e.Text()); ok {
		return v
	}
	v, err := ex.evalExpr(e, row)
	if err != nil {
		var unknown *unknownVarError
		if !errors.As(err, &unknown) && *errOut == nil {
			*errOut = err
		}
		return nullVal
	}
	return v
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
