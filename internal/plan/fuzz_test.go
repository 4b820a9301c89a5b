package plan_test

import (
	"fmt"
	"math/rand"
	"strings"
	"sync"
	"testing"

	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/model"
	"frappe/internal/query"
)

// fuzzWords are the string values of the fuzz graph's indexed keys and
// the literals predicates compare them with: prefixes of one another,
// wildcard characters that are data, and node type names.
var fuzzWords = []string{"a", "ab", "abc", "b", "ba", "bab", "a*b", "a?c", "c", "cab", "function", "struct"}

var (
	fuzzOnce  sync.Once
	fuzzG     *graph.Graph
	fuzzStats *gstats.Stats
)

// fuzzGraph is a fixed 24-node graph whose indexed keys hold those
// words, an integer here and there, and gaps where a node lacks the
// key.
func fuzzGraph() (*graph.Graph, *gstats.Stats) {
	fuzzOnce.Do(func() {
		g := graph.New()
		types := []model.NodeType{model.NodeFunction, model.NodeStruct, model.NodeField}
		const n = 24
		for i := 0; i < n; i++ {
			var props graph.Props
			switch {
			case i%7 == 3:
				props = graph.P(model.PropShortName, i)
			case i%5 != 4:
				props = graph.P(model.PropShortName, fuzzWords[i%len(fuzzWords)])
			}
			if i%2 == 0 {
				props = append(props, graph.P(model.PropName, fuzzWords[(i*5)%len(fuzzWords)])...)
			}
			if i%3 == 0 {
				props = append(props, graph.P(model.PropLongName, fuzzWords[(i*7)%len(fuzzWords)]+"(int)")...)
			}
			g.AddNode(types[i%len(types)], props)
		}
		rng := rand.New(rand.NewSource(3))
		etypes := []model.EdgeType{model.EdgeCalls, model.EdgeContains}
		for i := 0; i < 40; i++ {
			g.AddEdge(graph.NodeID(rng.Intn(n)), graph.NodeID(rng.Intn(n)), etypes[rng.Intn(len(etypes))], nil)
		}
		fuzzG, fuzzStats = g, gstats.Collect(g)
	})
	return fuzzG, fuzzStats
}

// fuzzReader decodes fuzz bytes into choices; past the end every choice
// is 0.
type fuzzReader struct {
	b []byte
	i int
}

func (r *fuzzReader) pick(n int) int {
	if r.i >= len(r.b) {
		return 0
	}
	r.i++
	return int(r.b[r.i-1]) % n
}

// lit renders a Cypher string literal: a fuzz word, or up to four
// characters drawn from letters, wildcards and a double quote.
func (r *fuzzReader) lit() string {
	if r.pick(2) == 0 {
		return "'" + fuzzWords[r.pick(len(fuzzWords))] + "'"
	}
	const alphabet = `abc*?"`
	var sb strings.Builder
	for k := r.pick(5); k > 0; k-- {
		sb.WriteByte(alphabet[r.pick(len(alphabet))])
	}
	return "'" + sb.String() + "'"
}

// prop renders v.key over the variables the query shape binds.
func (r *fuzzReader) prop(vars []string) string {
	keys := []string{"short_name", "SHORT_NAME", "name", "long_name", "type", "value"}
	return vars[r.pick(len(vars))] + "." + keys[r.pick(len(keys))]
}

// pred renders a WHERE predicate: =, <> and =~ against string and
// integer literals, on indexed and unindexed keys, under AND, OR, XOR
// and NOT.
func (r *fuzzReader) pred(vars []string, depth int) string {
	ops := 9
	if depth >= 3 {
		ops = 5
	}
	switch r.pick(ops) {
	case 0:
		return r.prop(vars) + " = " + r.lit()
	case 1:
		return r.lit() + " = " + r.prop(vars)
	case 2:
		return r.prop(vars) + " <> " + r.lit()
	case 3:
		return r.prop(vars) + " =~ " + r.lit()
	case 4:
		return fmt.Sprintf("%s = %d", r.prop(vars), r.pick(25))
	case 5:
		return "(" + r.pred(vars, depth+1) + " AND " + r.pred(vars, depth+1) + ")"
	case 6:
		return "(" + r.pred(vars, depth+1) + " OR " + r.pred(vars, depth+1) + ")"
	case 7:
		return "(" + r.pred(vars, depth+1) + " XOR " + r.pred(vars, depth+1) + ")"
	default:
		return "NOT (" + r.pred(vars, depth+1) + ")"
	}
}

// fuzzShapes are the MATCH clauses predicates are attached to, with the
// variables each binds.
var fuzzShapes = []struct {
	match, ret string
	vars       []string
}{
	{`MATCH (a:function) -[:calls]-> (b)`, `RETURN a.short_name, b.short_name`, []string{"a", "b"}},
	{`MATCH (a)`, `RETURN a`, []string{"a"}},
	{`MATCH (a) -[:calls]-> (b) <-[:contains]- (c)`, `RETURN count(*)`, []string{"a", "b", "c"}},
	{`MATCH (a), (b:struct)`, `RETURN distinct a, b`, []string{"a", "b"}},
	{`MATCH (a) -[:calls*..2]-> (b)`, `RETURN distinct b.short_name`, []string{"a", "b"}},
	{`START c=node(1, 2, 5) MATCH (a) -[:calls|contains]- c`, `RETURN a, c`, []string{"a", "c"}},
}

// FuzzPlannedMatchesNaive builds a WHERE predicate from the fuzz bytes,
// attaches it to a MATCH over a fixed small graph, and requires the
// planned execution (anchor choice, expansion order, closure rewrite,
// reachability fast path) to answer exactly as naive execution does.
func FuzzPlannedMatchesNaive(f *testing.F) {
	f.Add([]byte{0, 0, 1, 0, 0, 1})
	f.Add([]byte{1, 3, 0, 0, 0, 4})
	f.Add([]byte{1, 2, 0, 0, 1, 2, 0, 0, 3})
	f.Add([]byte{0, 5, 3, 1, 0, 1, 0, 0, 0, 1, 2})
	f.Add([]byte{3, 6, 0, 1, 0, 1, 0, 1, 1, 0, 5})
	f.Add([]byte{1, 8, 3, 0, 0, 1, 1, 2})
	g, st := fuzzGraph()
	f.Fuzz(func(t *testing.T, data []byte) {
		r := &fuzzReader{b: data}
		shape := fuzzShapes[r.pick(len(fuzzShapes))]
		text := shape.match + " WHERE " + r.pred(shape.vars, 0) + " " + shape.ret
		runBoth(t, g, st, text, query.Limits{MaxSteps: 200_000})
	})
}
