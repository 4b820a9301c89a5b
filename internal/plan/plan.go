// Package plan is the cost-based query planner. It consumes per-snapshot
// graph statistics (internal/gstats) to make two kinds of decisions over
// a parsed Cypher query:
//
//   - Cost decisions: pick the cheapest anchor position for unbound
//     MATCH patterns (index lookup < concrete-label scan < full scan,
//     weighted by estimated expansion fan-out) and order expansion so
//     the lower-fan-out side of the anchor runs first.
//
//   - The closure rewrite: a variable-length expansion whose bindings
//     cannot escape (no relationship or path variable) and whose
//     downstream clauses are multiplicity-invariant (DISTINCT
//     projection, or only duplication-invariant aggregates such as
//     min/max/count(DISTINCT)) is lowered from Cypher's path
//     enumeration to a visited-set transitive closure
//     (traversal.TransitiveClosureCtx). A simple path exists to exactly
//     the nodes BFS reaches, so the endpoint set is identical; only
//     per-path multiplicity differs, which the invariance analysis
//     proves unobservable. This is the paper's Figure 6 result — ">15
//     minutes of Cypher vs ~20 ms of embedded traversal" — applied
//     inside the query engine itself.
//
// Compile produces an immutable Plan; executing it runs the one query
// executor with the plan's hints, so planned and naive execution share
// one semantics modulo the proven rewrites. Plans are safe for
// concurrent execution and are cached by internal/qcache keyed on
// (query text, statistics generation).
package plan

import (
	"fmt"
	"math"
	"strings"
	"time"

	"frappe/internal/gstats"
	"frappe/internal/model"
	"frappe/internal/query"
)

// Plan is one compiled query: the parsed clauses plus the planner's
// per-clause decisions. A Plan is immutable after Compile; every
// execution is its own run of the executor.
type Plan struct {
	Query *query.Query
	// Generation is the statistics generation the cost decisions were
	// made against (0 when compiled without statistics). The plan cache
	// discards plans whose generation is stale.
	Generation int64
	// Rewrites counts closure rewrites applied; Fallback is true when
	// the clause shape is not straight-line: the query then runs
	// without hints and fails with its shape error before any clause.
	Rewrites int
	Fallback bool
	// Hints holds the per-pattern execution hints of each MATCH clause,
	// in clause order (exported for tests and EXPLAIN).
	Hints [][]query.PatternHint

	// notes holds the planner's annotations per clause index, rendered
	// under that clause's EXPLAIN line.
	notes map[int][]string
}

// Compile plans a parsed query against a statistics snapshot. st may be
// nil (e.g. EXPLAIN on a store without statistics): cost decisions then
// fall back to the executor's defaults but the closure rewrite — a
// purely semantic transformation — still applies.
func Compile(q *query.Query, st *gstats.Stats) *Plan {
	start := time.Now()
	p := &Plan{Query: q}
	if st != nil {
		p.Generation = st.Generation
	}
	defer func() {
		mPlanBuild.Observe(float64(time.Since(start)) / float64(time.Millisecond))
	}()

	if query.CheckShape(q) != nil {
		p.Fallback = true
		mFallbacks.Inc()
		return p
	}

	bound := map[string]bool{}
	for i, c := range q.Clauses {
		switch t := c.(type) {
		case *query.StartClause:
			for _, it := range t.Items {
				bound[it.Var] = true
			}
		case *query.MatchClause:
			hints, notes := p.planMatch(q.Clauses[i+1:], t, bound, st)
			if len(notes) > 0 {
				if p.notes == nil {
					p.notes = map[int][]string{}
				}
				p.notes[i] = notes
			}
			p.Hints = append(p.Hints, hints)
			for _, pat := range t.Patterns {
				for _, np := range pat.Nodes {
					if np.Var != "" {
						bound[np.Var] = true
					}
				}
				for _, rp := range pat.Rels {
					if rp.Var != "" {
						bound[rp.Var] = true
					}
				}
				if pat.PathVar != "" {
					bound[pat.PathVar] = true
				}
			}
		case *query.WithClause:
			bound = projectionVars(t.Items)
		}
	}
	mRewrites.Add(int64(p.Rewrites))
	return p
}

// projectionVars is the variable set visible after a WITH: its output
// column names (alias, or the expression's own text — which for a bare
// variable is the variable name).
func projectionVars(items []query.ReturnItem) map[string]bool {
	out := map[string]bool{}
	for _, it := range items {
		name := it.Alias
		if name == "" {
			name = it.Expr.Text()
		}
		out[name] = true
	}
	return out
}

// planMatch decides hints for one MATCH clause: closure rewrites
// (legality proven against the remaining clauses) and anchor/order
// choices (cost model over st).
func (p *Plan) planMatch(rest []query.Clause, mc *query.MatchClause, bound map[string]bool, st *gstats.Stats) ([]query.PatternHint, []string) {
	hints := make([]query.PatternHint, len(mc.Patterns))
	var notes []string
	for pi, pat := range mc.Patterns {
		h := &hints[pi]

		// Closure rewrite: restricted to single-pattern, single-rel
		// MATCH so the shared relationship-uniqueness set is provably
		// empty when the expansion runs.
		if len(mc.Patterns) == 1 && query.ClosureShape(pat) && dedupFollows(rest) {
			h.Closure = []bool{true}
			p.Rewrites++
			notes = append(notes, "closure rewrite: "+query.PatternText(pat)+
				" runs as visited-set BFS (downstream is multiplicity-invariant)")
		}

		if pat.Shortest || pat.AllShortest {
			continue // shortest-path matching has its own executor
		}

		// Anchor: position of the first bound variable wins outright;
		// otherwise pick the cheapest seed by estimated cost.
		a := boundAnchor(pat, bound)
		if a < 0 && st != nil && len(pat.Nodes) > 1 {
			best, bestCost, why := 0, math.Inf(1), ""
			for i := range pat.Nodes {
				cost, desc := patternCost(pat, i, h.Closure, st)
				if cost < bestCost {
					best, bestCost, why = i, cost, desc
				}
			}
			if best > 0 {
				h.Anchor = best
				notes = append(notes, fmt.Sprintf("anchor %s at position %d (%s, est cost %.0f)",
					query.NodePatternText(pat.Nodes[best]), best, why, bestCost))
			}
			a = best
		}
		if a < 0 {
			a = 0
		}

		// Expansion order: run the cheaper side of the anchor first so
		// intermediate row counts stay small.
		if a > 0 && a < len(pat.Rels)+1 && len(pat.Rels) > 1 && st != nil {
			lf := firstHopFanout(pat, a, false, st)
			rf := firstHopFanout(pat, a, true, st)
			if lf < rf {
				h.LeftFirst = true
				notes = append(notes, fmt.Sprintf("expand left of anchor first (fan-out %.1f vs %.1f)", lf, rf))
			}
		}
	}
	return hints, notes
}

// boundAnchor returns the first node position whose variable is bound
// at this point of the pipeline, or -1.
func boundAnchor(pat *query.Pattern, bound map[string]bool) int {
	for i, np := range pat.Nodes {
		if np.Var != "" && bound[np.Var] {
			return i
		}
	}
	return -1
}

// dedupFollows proves the clauses after a MATCH are
// multiplicity-invariant: WHERE filters are per-row and transparent;
// the first projection reached must either be DISTINCT (no aggregates)
// or aggregate only through duplication-invariant functions. SKIP/LIMIT
// are rejected because they select by row order, which the rewrite does
// not preserve. Another MATCH first, or no projection at all, is
// conservatively illegal.
func dedupFollows(rest []query.Clause) bool {
	for _, c := range rest {
		switch t := c.(type) {
		case *query.WhereClause:
			continue
		case *query.WithClause:
			return projectionDedups(t.Items, t.Distinct) && t.Skip == nil && t.Limit == nil
		case *query.ReturnClause:
			return projectionDedups(t.Items, t.Distinct) && t.Skip == nil && t.Limit == nil
		default:
			return false
		}
	}
	return false
}

func projectionDedups(items []query.ReturnItem, distinct bool) bool {
	if len(items) == 0 {
		return false
	}
	hasAgg := false
	for _, it := range items {
		if query.IsAggregate(it.Expr) {
			hasAgg = true
		}
	}
	if !hasAgg {
		return distinct
	}
	// Aggregation groups by the non-aggregate items (duplication cannot
	// change the group set), so the aggregates themselves must be
	// duplication-invariant.
	for _, it := range items {
		if query.IsAggregate(it.Expr) && !dupInvariantAgg(it.Expr) {
			return false
		}
	}
	return true
}

// dupInvariantAgg accepts exactly the aggregate calls whose value is a
// function of the input set, not the input multiset: min, max, and the
// DISTINCT forms of count/collect/sum/avg.
func dupInvariantAgg(e query.Expr) bool {
	call, ok := e.(*query.CallExpr)
	if !ok {
		return false
	}
	switch strings.ToLower(call.Name) {
	case "min", "max":
		return true
	case "count", "collect", "sum", "avg":
		return call.Distinct
	}
	return false
}

// --- cost model ---

// Heuristic constants: an auto-index lookup is a near-constant seed; an
// unbounded enumeration is charged as a deep power of the fan-out so it
// is never preferred when any alternative exists.
const (
	indexSeedCost  = 4.0
	enumDepthProxy = 6
)

// patternCost estimates seeding the pattern at position a and expanding
// outward: seed cardinality plus the running intermediate row count
// after each hop (independence-assumption selectivities).
func patternCost(pat *query.Pattern, a int, closure []bool, st *gstats.Stats) (float64, string) {
	cost, rows, desc := seedCost(pat.Nodes[a], st)
	walk := func(relIdx, knownPos, targPos int) {
		rel := pat.Rels[relIdx]
		f := hopFanout(rel, pat.Nodes[knownPos], knownPos < targPos, st)
		if rel.VarLen {
			if relIdx < len(closure) && closure[relIdx] {
				// Visited-set closure: work bounded by the edge count of
				// the traversed types, output by the node count.
				cost += edgeCount(rel, st)
				rows = math.Min(rows*math.Pow(math.Max(f, 1), 3), float64(st.Nodes))
				return
			}
			depth := enumDepthProxy
			if rel.MaxHops > 0 && rel.MaxHops < depth {
				depth = rel.MaxHops
			}
			f = math.Min(math.Pow(math.Max(f, 1), float64(depth)), 1e15)
		}
		// Expansion work is paid on every produced candidate; only the
		// survivors of the target's label/property filters feed the next
		// hop.
		rows *= math.Max(f, 0.01)
		cost += rows
		rows *= nodeSelectivity(pat.Nodes[targPos], st)
	}
	for i := a; i < len(pat.Rels); i++ {
		walk(i, i, i+1)
	}
	for i := a - 1; i >= 0; i-- {
		walk(i, i+1, i)
	}
	return cost, desc
}

// seedCost estimates scanCandidates for an unbound node pattern,
// mirroring the executor's actual strategy: indexed string property,
// then concrete type label, then full scan.
func seedCost(np *query.NodePattern, st *gstats.Stats) (cost, card float64, desc string) {
	if pm := query.IndexedProp(np); pm != nil {
		return indexSeedCost, indexSeedCost, "index lookup " + pm.Key
	}
	if l := query.ConcreteLabel(np); l != "" {
		n := float64(st.NodesByType[l])
		return n, n, "label scan :" + l
	}
	n := float64(st.Nodes)
	return n, n, "full scan"
}

// nodeSelectivity estimates the fraction of expansion targets that
// survive the target pattern's label/property filters.
func nodeSelectivity(np *query.NodePattern, st *gstats.Stats) float64 {
	s := 1.0
	if st.Nodes > 0 {
		if l := query.ConcreteLabel(np); l != "" {
			s *= math.Max(float64(st.NodesByType[l])/float64(st.Nodes), 1.0/float64(st.Nodes))
		}
	}
	for range np.Props {
		s *= 0.1
	}
	return s
}

// hopFanout estimates the expected number of edges followed from one
// node of the known pattern's type (its concrete label when present,
// the global average otherwise). forward means the hop runs with the
// pattern's left-to-right orientation.
func hopFanout(rel *query.RelPattern, known *query.NodePattern, forward bool, st *gstats.Stats) float64 {
	var outgoing, incoming bool
	switch {
	case rel.ToRight:
		outgoing = forward
		incoming = !forward
	case rel.ToLeft:
		outgoing = !forward
		incoming = forward
	default:
		outgoing, incoming = true, true
	}
	fromType := query.ConcreteLabel(known)
	dir := func(out bool) float64 {
		if len(rel.Types) == 0 {
			if st.Nodes == 0 {
				return 1
			}
			return float64(st.Edges) / float64(st.Nodes)
		}
		var f float64
		for _, t := range rel.Types {
			f += st.AvgDegree(fromType, model.EdgeType(strings.ToLower(t)), out)
		}
		return f
	}
	var f float64
	if outgoing {
		f += dir(true)
	}
	if incoming {
		f += dir(false)
	}
	return f
}

// firstHopFanout estimates the fan-out of the first hop on one side of
// the anchor (right = true for the rel at the anchor's right).
func firstHopFanout(pat *query.Pattern, a int, right bool, st *gstats.Stats) float64 {
	if right {
		if a >= len(pat.Rels) {
			return math.Inf(1)
		}
		return hopFanout(pat.Rels[a], pat.Nodes[a], true, st)
	}
	if a == 0 {
		return math.Inf(1)
	}
	return hopFanout(pat.Rels[a-1], pat.Nodes[a], false, st)
}

// edgeCount sums the stored edge counts of a relationship pattern's
// types (all edges when untyped) — the work bound of a visited-set
// closure.
func edgeCount(rel *query.RelPattern, st *gstats.Stats) float64 {
	if len(rel.Types) == 0 {
		return float64(st.Edges)
	}
	var n float64
	for _, t := range rel.Types {
		n += float64(st.EdgesByType[strings.ToLower(t)])
	}
	return n
}

// Explain renders the plan for humans: one line per operator with the
// planner's decisions indented beneath.
func (p *Plan) Explain() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "Plan (stats generation %d", p.Generation)
	if p.Rewrites > 0 {
		fmt.Fprintf(&sb, ", %d closure rewrite(s)", p.Rewrites)
	}
	if p.Fallback {
		sb.WriteString(", interpreter fallback")
	}
	sb.WriteString(")\n")
	for i, c := range p.Query.Clauses {
		op, detail := query.OperatorInfo(c)
		fmt.Fprintf(&sb, "  %-14s %s\n", op, detail)
		for _, n := range p.notes[i] {
			fmt.Fprintf(&sb, "  %-14s ^ %s\n", "", n)
		}
	}
	return sb.String()
}
