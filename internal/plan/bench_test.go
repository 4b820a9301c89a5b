package plan_test

import (
	"context"
	"fmt"
	"testing"

	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/kernelgen"
	"frappe/internal/model"
	"frappe/internal/plan"
	"frappe/internal/query"
)

// BenchmarkPlanExecuteLight measures the executor's fixed per-query
// cost: light, anchored lookups against the kernelgen scale-1 graph,
// each compiled once and executed b.N times. Their result sets are a
// handful of rows, so allocations per op are dominated by per-run setup
// rather than by enumeration.
func BenchmarkPlanExecuteLight(b *testing.B) {
	w := kernelgen.Generate(kernelgen.Scaled(1))
	res, err := w.Extract()
	if err != nil {
		b.Fatal(err)
	}
	g := res.Graph
	st := gstats.Collect(g)
	fn := lightCaller(g)
	if fn == "" {
		b.Fatal("no light caller in the generated graph")
	}
	for _, tc := range []struct{ name, text string }{
		{"callees", `START n=node:node_auto_index('short_name: %s') MATCH n -[r:calls]-> m RETURN m.short_name, r.use_start_line`},
		{"search", `START n=node:node_auto_index('short_name: %s') RETURN n.short_name, n.long_name, n.type`},
		{"two-hop", `START n=node:node_auto_index('short_name: %s') MATCH n -[:calls]-> m -[:calls]-> k RETURN distinct k.short_name`},
	} {
		q, err := query.Parse(fmt.Sprintf(tc.text, fn))
		if err != nil {
			b.Fatal(err)
		}
		p := plan.Compile(q, st)
		b.Run(tc.name, func(b *testing.B) {
			ctx := context.Background()
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := p.Execute(ctx, g, query.Limits{}); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// lightCaller returns the short name of the first function with exactly
// one outgoing calls edge whose callee calls on, so callees returns one
// row and two-hop a few: the shape of an interactive lookup.
func lightCaller(g *graph.Graph) string {
	callees := func(id graph.NodeID) []graph.NodeID {
		var out []graph.NodeID
		for _, e := range g.Out(id) {
			if _, to, t := g.EdgeEnds(e); t == model.EdgeCalls {
				out = append(out, to)
			}
		}
		return out
	}
	for id := graph.NodeID(0); int64(id) < g.NodeCount(); id++ {
		if g.NodeType(id) != model.NodeFunction {
			continue
		}
		if c := callees(id); len(c) == 1 && len(callees(c[0])) > 0 {
			if v, ok := g.NodeProp(id, model.PropShortName); ok {
				return v.AsString()
			}
		}
	}
	return ""
}
