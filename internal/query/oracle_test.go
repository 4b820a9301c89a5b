package query

import (
	"context"

	"frappe/internal/graph"
)

// The clause-at-a-time interpreter, kept as the test oracle for the
// pipeline: each clause runs over the full row set of the one before
// it, so its row order, DISTINCT first-seen order, SKIP/LIMIT selection
// and OPTIONAL padding are an independent reference for the push-based
// executor's. It runs naively (no planner hints, no fast predicates)
// and shares only the match machinery and applyProjection with it.

// oracle runs q through the interpreter under lim.
func oracle(ctx context.Context, src graph.Source, q *Query, lim Limits) (*Result, error) {
	ex := &exec{src: src, ctx: ctx, limits: lim}
	res, err := ex.interpret(q)
	if err != nil {
		return nil, err
	}
	res.Steps = ex.steps
	return res, nil
}

// Streamable reports whether q has a valid clause shape and no blocking
// stage, i.e. whether a stream of it runs pipelined end to end.
func Streamable(q *Query) bool {
	return CheckShape(q) == nil && !hasBlockingStage(q)
}

func (ex *exec) interpret(q *Query) (*Result, error) {
	ex.resolve(q)
	var rows []Row
	if len(ex.stages) > 0 {
		rows = []Row{ex.stages[0].in.newRow()}
	}
	var result *Result
	for i, c := range q.Clauses {
		if result != nil {
			return nil, ex.errf("RETURN must be the final clause")
		}
		var err error
		switch t := c.(type) {
		case *StartClause:
			rows, err = ex.applyStart(rows, t, ex.stages[i].starts)
		case *MatchClause:
			rows, err = ex.applyMatch(rows, t)
		case *WhereClause:
			rows, err = ex.applyWhere(rows, t)
		case *WithClause:
			rows, err = ex.applyProjection(rows, (*ReturnClause)(t), ex.stages[i].colScope)
		case *ReturnClause:
			st := &ex.stages[i]
			var projected []Row
			projected, err = ex.applyProjection(rows, t, st.colScope)
			if err == nil {
				result = &Result{Columns: st.cols}
				for _, r := range projected {
					vals := make([]Val, len(st.cols))
					for j, s := range st.colSlots {
						vals[j] = r.vals[s]
					}
					result.Rows = append(result.Rows, vals)
				}
			}
		}
		if err != nil {
			return nil, err
		}
	}
	if result == nil {
		return nil, ex.errf("query has no RETURN clause")
	}
	return result, nil
}

func (ex *exec) applyStart(rows []Row, sc *StartClause, starts []startItem) ([]Row, error) {
	for k, item := range sc.Items {
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
				r.vals[starts[k].slot] = NodeVal(id)
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

func (ex *exec) applyMatch(rows []Row, mc *MatchClause) ([]Row, error) {
	var out []Row
	for _, row := range rows {
		matched := false
		err := ex.matchPatterns(row, mc.Patterns, nil, edgeSet{}, func(r Row) error {
			if err := ex.checkRows(len(out) + 1); err != nil {
				return err
			}
			matched = true
			out = append(out, r.clone())
			return nil
		})
		if err != nil {
			return nil, err
		}
		if !matched && mc.Optional {
			r := row.clone()
			for _, pat := range mc.Patterns {
				ps := ex.slotsOf(pat)
				for _, s := range append(append([]int{ps.path}, ps.nodes...), ps.rels...) {
					if s >= 0 && r.vals[s].Kind == valUnbound {
						r.vals[s] = nullVal
					}
				}
			}
			out = append(out, r)
		}
	}
	return out, nil
}
