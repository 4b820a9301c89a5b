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
	rows := []Row{{}}
	var result *Result
	for _, c := range q.Clauses {
		if result != nil {
			return nil, ex.errf("RETURN must be the final clause")
		}
		var err error
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
		if err != nil {
			return nil, err
		}
	}
	if result == nil {
		return nil, ex.errf("query has no RETURN clause")
	}
	return result, nil
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

func (ex *exec) applyMatch(rows []Row, mc *MatchClause) ([]Row, error) {
	var out []Row
	for _, row := range rows {
		matched := false
		err := ex.matchPatterns(row, mc.Patterns, nil, edgeSet{}, func(r Row) error {
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
