package plan

import (
	"context"

	"frappe/internal/graph"
	"frappe/internal/query"
)

// Execute runs the compiled plan over src under resource budgets. Plans
// are immutable and safe for concurrent Execute calls; each call is its
// own run of the executor.
func (p *Plan) Execute(ctx context.Context, src graph.Source, lim query.Limits) (*query.Result, error) {
	return query.ExecuteHints(ctx, src, p.Query, lim, p.Hints, true, nil)
}

// ExecuteProfile runs the plan with per-operator tracing; the returned
// profile carries the EXPLAIN rendering in Profile.Plan and is non-nil
// even when execution errors (partial traces survive budget aborts).
func (p *Plan) ExecuteProfile(ctx context.Context, src graph.Source, lim query.Limits) (*query.Result, *query.Profile, error) {
	prof := &query.Profile{Plan: p.Explain()}
	res, err := query.ExecuteHints(ctx, src, p.Query, lim, p.Hints, true, prof)
	return res, prof, err
}

// Stream runs the compiled plan as a streaming execution: rows arrive
// through the returned Stream's bounded channel instead of a
// materialized Result, with every planner decision kept, including the
// closure rewrite (its legality proof is about downstream multiplicity
// invariance, which a streaming DISTINCT preserves).
func (p *Plan) Stream(ctx context.Context, src graph.Source, lim query.Limits, depth int) *query.Stream {
	return query.ExecuteStreamHints(ctx, src, p.Query, lim, p.Hints, true, depth)
}
