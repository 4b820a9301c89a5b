package main

import (
	"fmt"
	"math/rand"
	"sort"

	"frappe/internal/extract"
	"frappe/internal/graph"
	"frappe/internal/model"
)

// kind classes a request before it is sent, by the shape of its query,
// never by how long it took.
type kind int

const (
	light kind = iota // one-hop anchored lookup: callees, callers, go-to-definition, search
	heavy             // multi-hop traversal or scan
)

func (k kind) String() string {
	if k == light {
		return "light"
	}
	return "heavy"
}

// request is one generated query.
type request struct {
	Text   string
	Kind   kind
	Stream bool // sent to /api/query/stream instead of /api/query
	// Rows is the exact row count the answer must have (the paper's
	// Figures 3-5), or -1 when only the digest sample checks it.
	Rows int
}

// The paper's queries, verbatim. Figure 4 is built by fig4 because its
// file ID depends on the store.
const (
	fig3Query = `START m=node:node_auto_index('short_name: wakeup.elf')
MATCH m -[:compiled_from|linked_from*]-> f
WITH distinct f
MATCH f -[:file_contains]-> (n:field{short_name: 'id'})
RETURN distinct n`
	fig5Query = `START from=node:node_auto_index('short_name: sr_media_change'),
      to=node:node_auto_index('short_name: get_sectorsize'),
      b=node:node_auto_index('short_name: packet_command')
MATCH writer -[write:writes_member]-> ({SHORT_NAME:'cmd'}) <-[:contains]- b
WITH to, from, writer, write
MATCH direct <-[s:calls]- from -[r:calls{use_start_line: 236}]-> to
WHERE r.use_start_line >= s.use_start_line AND direct -[:calls*]-> writer
RETURN distinct writer, write.use_start_line`
)

func fig4Query(srFileID int64) string {
	return defQuery(defSite{Name: "get_sectorsize", File: srFileID, Line: 236, Col: 9})
}

// defSite is a reference to a function: the coordinates a go-to-
// definition request (the paper's Figure 4) resolves.
type defSite struct {
	Name            string
	File, Line, Col int64
}

func defQuery(d defSite) string {
	return fmt.Sprintf(`START n=node:node_auto_index('short_name: %s') WHERE (n) <-[{NAME_FILE_ID: %d, NAME_START_LINE: %d, NAME_START_COL: %d}]- () RETURN n`,
		d.Name, d.File, d.Line, d.Col)
}

// The query templates. Each is a function of one or two names so that
// the console stream can make texts that never repeat; go-to-definition
// texts come from defQuery.
var templates = map[string]struct {
	kind   kind
	stream bool
	format string
}{
	"callees": {light, false, `START n=node:node_auto_index('short_name: %s') MATCH n -[r:calls]-> m RETURN m.short_name, r.use_start_line`},
	"callers": {light, false, `START n=node:node_auto_index('short_name: %s') MATCH n <-[r:calls]- m RETURN m.short_name, r.use_start_line`},
	"search":  {light, false, `START n=node:node_auto_index('short_name: %s') RETURN n.short_name, n.long_name, n.type`},
	"closure": {heavy, false, `START n=node:node_auto_index('short_name: %s') MATCH n -[:calls*]-> m RETURN distinct m.short_name`},
	// closure-stream is the same traversal consumed as NDJSON.
	"closure-stream": {heavy, true, `START n=node:node_auto_index('short_name: %s') MATCH n -[:calls*]-> m RETURN distinct m.short_name, m.long_name`},
	"two-hop":        {heavy, false, `START n=node:node_auto_index('short_name: %s') MATCH n -[:calls]-> m -[:calls]-> k RETURN distinct k.short_name`},
	// revscan is the unanchored reverse lookup: every function is scanned.
	"revscan": {heavy, false, `MATCH (a:function) -[:calls]-> b WHERE b.short_name = '%s' RETURN a.short_name`},
	// scan-stream streams a wildcard scan over every function's name.
	"scan-stream": {heavy, true, `MATCH (f:function) WHERE f.short_name =~ '%s*' RETURN f.short_name, f.long_name`},
	// fig3 is the paper's Figure 3 shape for another module and field.
	"fig3":     {heavy, false, `START m=node:node_auto_index('short_name: %s') MATCH m -[:compiled_from|linked_from*]-> f WITH distinct f MATCH f -[:file_contains]-> (n:field{short_name: '%s'}) RETURN distinct n`},
	"shortest": {heavy, false, `START a=node:node_auto_index('short_name: %s'), b=node:node_auto_index('short_name: %s') MATCH p = shortestPath(a -[:calls*..6]-> b) RETURN length(p)`},
	"writers":  {heavy, false, `MATCH w -[:writes_member]-> ({SHORT_NAME:'%s'}) RETURN distinct w.short_name`},
}

func templated(name string, args ...any) request {
	t, ok := templates[name]
	if !ok {
		panic("unknown template " + name)
	}
	return request{Text: fmt.Sprintf(t.format, args...), Kind: t.kind, Stream: t.stream, Rows: -1}
}

// corpus is what the generators draw names from, read once from the
// extracted graph in node-ID order so it is identical on every run.
type corpus struct {
	fns     []string  // every function name
	callers []string  // functions that call at least one function
	mods    []string  // module names
	fields  []string  // distinct field names
	defs    []defSite // one definition site per function that has one
}

func newCorpus(g graph.Source) *corpus {
	c := &corpus{}
	seen := map[string]bool{}
	name := func(id graph.NodeID) string {
		v, _ := g.NodeProp(id, model.PropShortName)
		return v.AsString()
	}
	intProp := func(e graph.EdgeID, key string) (int64, bool) {
		v, ok := g.EdgeProp(e, key)
		return v.AsInt(), ok && v.Kind() == graph.KindInt
	}
	for id := graph.NodeID(0); int64(id) < g.NodeCount(); id++ {
		n := name(id)
		switch g.NodeType(id) {
		case model.NodeModule:
			c.mods = append(c.mods, n)
		case model.NodeField:
			if !seen["field:"+n] {
				seen["field:"+n] = true
				c.fields = append(c.fields, n)
			}
		case model.NodeFunction:
			if n == "" || seen["fn:"+n] {
				continue
			}
			seen["fn:"+n] = true
			c.fns = append(c.fns, n)
			for _, e := range g.Out(id) {
				if _, _, t := g.EdgeEnds(e); t == model.EdgeCalls {
					c.callers = append(c.callers, n)
					break
				}
			}
			for _, e := range g.In(id) {
				f, ok1 := intProp(e, model.PropNameFileID)
				l, ok2 := intProp(e, model.PropNameStartLine)
				col, ok3 := intProp(e, model.PropNameStartCol)
				if ok1 && ok2 && ok3 {
					c.defs = append(c.defs, defSite{Name: n, File: f, Line: l, Col: col})
					break
				}
			}
		}
	}
	return c
}

// agentPool is the fixed pool agent-hot draws from: the paper's
// Figures 3-5 plus point lookups and traversals over names chosen with a
// constant seed. The order is fixed too, because it is the Zipf rank.
// The counts per template are assumptions, not measured frequencies
// (README.md, "Traffic assumptions").
func agentPool(c *corpus, srFileID int64) []request {
	r := rand.New(rand.NewSource(2015))
	pick := func(xs []string) string { return xs[r.Intn(len(xs))] }
	pool := []request{
		{Text: fig3Query, Kind: heavy, Rows: 2},
		{Text: fig4Query(srFileID), Kind: light, Rows: 1},
		{Text: fig5Query, Kind: heavy, Rows: 1},
		templated("shortest", "sr_media_change", "get_sectorsize"),
	}
	add := func(n int, tmpl string, arg func() []any) {
		for i := 0; i < n; i++ {
			pool = append(pool, templated(tmpl, arg()...))
		}
	}
	fn := func() []any { return []any{pick(c.callers)} }
	add(6, "callees", fn)
	add(6, "callers", func() []any { return []any{pick(c.fns)} })
	add(4, "search", func() []any { return []any{pick(c.fns)} })
	for i := 0; i < 4; i++ {
		pool = append(pool, request{Text: defQuery(c.defs[r.Intn(len(c.defs))]), Kind: light, Rows: -1})
	}
	add(3, "closure", fn)
	add(2, "revscan", func() []any { return []any{pick(c.fns)} })
	add(2, "fig3", func() []any { return []any{pick(c.mods), pick(c.fields)} })
	add(1, "writers", func() []any { return []any{pick(c.fields)} })
	add(1, "two-hop", fn)
	r.Shuffle(len(pool), func(i, j int) { pool[i], pool[j] = pool[j], pool[i] })
	return dedup(pool)
}

// dedup drops repeated texts (two draws of the same name), keeping the
// first occurrence's rank.
func dedup(pool []request) []request {
	seen := map[string]bool{}
	out := pool[:0]
	for _, q := range pool {
		if !seen[q.Text] {
			seen[q.Text] = true
			out = append(out, q)
		}
	}
	return out
}

// zipfStream draws pool indices by a seeded Zipf law: rank 0 is the
// hottest text. The exponent is an assumption with no source.
type zipfStream struct {
	pool []request
	z    *rand.Zipf
}

func newZipfStream(pool []request, seed int64) *zipfStream {
	r := rand.New(rand.NewSource(seed))
	return &zipfStream{pool: pool, z: rand.NewZipf(r, 1.1, 1, uint64(len(pool)-1))}
}

func (s *zipfStream) next() (request, error) { return s.pool[s.z.Uint64()], nil }

// passStream sends every pool text once per pass, each pass in a new
// seeded order. Between two edits edit-live's reader makes several
// passes, so every text misses the just-invalidated cache exactly once
// per edit and the miss share is the same on every seed.
type passStream struct {
	pool  []request
	r     *rand.Rand
	order []int
}

func newPassStream(pool []request, seed int64) *passStream {
	return &passStream{pool: pool, r: rand.New(rand.NewSource(seed))}
}

func (s *passStream) next() (request, error) {
	if len(s.order) == 0 {
		s.order = s.r.Perm(len(s.pool))
	}
	q := s.pool[s.order[0]]
	s.order = s.order[1:]
	return q, nil
}

// consoleMix is console-cold's request mix: every block of 84 requests
// holds exactly these templates, in a seeded order, so the light/heavy
// shares are the same on every seed and every run length. The shares
// are assumptions, not measured console traffic (README.md, "Traffic
// assumptions"): lookups outnumber traversals two to one, which also
// gives the light p90 enough samples. The full scans (revscan) are cut
// to 2 of the 28 heavy requests so that the heavy p90 falls among the
// many mid-cost traversals rather than on a handful of scans.
var consoleMix = []struct {
	tmpl string
	n    int
}{
	{"callees", 16}, {"callers", 14}, {"def", 13}, {"search", 13},
	{"closure", 7}, {"closure-stream", 4}, {"two-hop", 6}, {"fig3", 4},
	{"scan-stream", 5}, {"revscan", 2},
}

// consoleBlock returns one block of consoleMix's templates, unshuffled.
func consoleBlock() []string {
	var b []string
	for _, m := range consoleMix {
		for i := 0; i < m.n; i++ {
			b = append(b, m.tmpl)
		}
	}
	return b
}

// consoleStream generates console-cold texts that never repeat. Each
// stream owns the names whose index is part modulo parts, so streams
// running side by side never send the same text either.
type consoleStream struct {
	c           *corpus
	r           *rand.Rand
	part, parts int
	block       []string
	used        map[string]bool
}

func newConsoleStream(c *corpus, seed int64, part, parts int) *consoleStream {
	return &consoleStream{c: c, r: rand.New(rand.NewSource(seed*31 + int64(part))), part: part, parts: parts, used: map[string]bool{}}
}

// pickIndex draws an index below n owned by this stream's partition.
func (s *consoleStream) pickIndex(n int) int {
	k := (n - s.part + s.parts - 1) / s.parts // indices part, part+parts, ...
	return s.part + s.parts*s.r.Intn(k)
}

func (s *consoleStream) next() (request, error) {
	if len(s.block) == 0 {
		s.block = consoleBlock()
		s.r.Shuffle(len(s.block), func(i, j int) { s.block[i], s.block[j] = s.block[j], s.block[i] })
	}
	tmpl := s.block[0]
	s.block = s.block[1:]
	for try := 0; try < 1000; try++ {
		var q request
		switch tmpl {
		case "def":
			q = request{Text: defQuery(s.c.defs[s.pickIndex(len(s.c.defs))]), Kind: light, Rows: -1}
		case "fig3":
			i := s.pickIndex(len(s.c.mods) * len(s.c.fields))
			q = templated(tmpl, s.c.mods[i/len(s.c.fields)], s.c.fields[i%len(s.c.fields)])
		case "callees", "closure", "closure-stream", "two-hop":
			q = templated(tmpl, s.c.callers[s.pickIndex(len(s.c.callers))])
		default:
			q = templated(tmpl, s.c.fns[s.pickIndex(len(s.c.fns))])
		}
		if !s.used[q.Text] {
			s.used[q.Text] = true
			return q, nil
		}
	}
	return request{}, fmt.Errorf("console stream: no unused %s text left", tmpl)
}

// edit is one seeded source change: a new function appended to one
// compilation unit. Appending keeps every existing line number, so the
// paper's figure queries keep their answers.
type edit struct {
	Unit string
	Func string
	Body string
}

// edits returns the seed's first n edits over build's units.
func edits(build extract.Build, seed int64, n int) []edit {
	units := make([]string, len(build.Units))
	for i, u := range build.Units {
		units[i] = u.Source
	}
	sort.Strings(units)
	r := rand.New(rand.NewSource(seed*7919 + 1))
	out := make([]edit, n)
	for i := range out {
		name := fmt.Sprintf("perfbench_edit_%d", i+1)
		out[i] = edit{
			Unit: units[r.Intn(len(units))],
			Func: name,
			Body: fmt.Sprintf("\nint %s(int v)\n{\n\treturn v + %d;\n}\n", name, r.Intn(1000)),
		}
	}
	return out
}

func probeQuery(fn string) string {
	return fmt.Sprintf(`START n=node:node_auto_index('short_name: %s') RETURN n.short_name`, fn)
}
