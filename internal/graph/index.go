package graph

import (
	"fmt"
	"slices"
	"sort"
	"strings"

	"frappe/internal/model"
)

// IndexedKeys are the node properties maintained in the auto-index, the
// same set Frappé's Neo4j deployment configured for node_auto_index.
var IndexedKeys = []string{model.PropType, model.PropShortName, model.PropName, model.PropLongName}

func isIndexedKey(key string) bool {
	for _, k := range IndexedKeys {
		if eqFold(key, k) {
			return true
		}
	}
	return false
}

// Index is an inverted index from (property key, exact value) to sorted
// node IDs. It backs the Lucene-flavoured node_auto_index query syntax
// used by the paper's START clauses, e.g.
//
//	short_name: wakeup.elf
//	(TYPE: struct OR TYPE: union) AND NAME: foo
//	short_name: pci_*
//
// Bare adjacency of clauses means OR (Lucene's default operator); AND
// binds tighter than OR; NOT is supported as a prefix; '*' and '?' act as
// wildcards anywhere in a value; values with spaces can be quoted with
// single or double quotes.
type Index struct {
	byKey map[string]map[string][]NodeID // lower(key) -> value -> sorted ids
}

func newIndex() *Index {
	return &Index{byKey: make(map[string]map[string][]NodeID)}
}

func (ix *Index) addNode(id NodeID, typ model.NodeType, props Props) {
	ix.put(model.PropType, string(typ), id)
	for _, p := range props {
		if isIndexedKey(p.Key) && p.Val.Kind() == KindString {
			ix.put(p.Key, p.Val.AsString(), id)
		}
	}
}

func (ix *Index) updateNode(id NodeID, key string, old Value, had bool, now Value) {
	if !isIndexedKey(key) {
		return
	}
	if had && old.Kind() == KindString {
		ix.remove(key, old.AsString(), id)
	}
	if now.Kind() == KindString {
		ix.put(key, now.AsString(), id)
	}
}

func (ix *Index) put(key, value string, id NodeID) {
	k := strings.ToLower(key)
	m := ix.byKey[k]
	if m == nil {
		m = make(map[string][]NodeID)
		ix.byKey[k] = m
	}
	ids := m[value]
	if n := len(ids); n > 0 && ids[n-1] >= id {
		// Keep sorted on out-of-order insert (rare: SetNodeProp).
		pos := sort.Search(n, func(i int) bool { return ids[i] >= id })
		if pos < n && ids[pos] == id {
			return
		}
		ids = append(ids, 0)
		copy(ids[pos+1:], ids[pos:])
		ids[pos] = id
		m[value] = ids
		return
	}
	m[value] = append(ids, id)
}

func (ix *Index) remove(key, value string, id NodeID) {
	k := strings.ToLower(key)
	m := ix.byKey[k]
	if m == nil {
		return
	}
	ids := m[value]
	pos := sort.Search(len(ids), func(i int) bool { return ids[i] >= id })
	if pos < len(ids) && ids[pos] == id {
		m[value] = append(ids[:pos], ids[pos+1:]...)
	}
}

// Terms returns the number of distinct (key, value) terms; used for store
// sizing (Table 4's "Indexes" row).
func (ix *Index) Terms() int {
	n := 0
	for _, m := range ix.byKey {
		n += len(m)
	}
	return n
}

// Entries iterates all (key, value, ids) triples in a deterministic order.
func (ix *Index) Entries(fn func(key, value string, ids []NodeID)) {
	keys := make([]string, 0, len(ix.byKey))
	for k := range ix.byKey {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		vals := make([]string, 0, len(ix.byKey[k]))
		for v := range ix.byKey[k] {
			vals = append(vals, v)
		}
		sort.Strings(vals)
		for _, v := range vals {
			fn(k, v, ix.byKey[k][v])
		}
	}
}

// Put inserts a single term directly; used when rebuilding an index from
// its serialised form.
func (ix *Index) Put(key, value string, id NodeID) { ix.put(key, value, id) }

// Lookup parses and evaluates an index query, returning sorted node IDs.
func (ix *Index) Lookup(query string) ([]NodeID, error) {
	q, err := ParseIndexQuery(query)
	if err != nil {
		return nil, err
	}
	return EvalIndexQuery(q, ix), nil
}

// IndexTermSource abstracts term lookup so that EvalIndexQuery runs both
// against the in-memory Index and against the on-disk index in the store
// package.
type IndexTermSource interface {
	// Exact returns a fresh sorted slice of node IDs for an exact term.
	Exact(key, value string) []NodeID
	// Prefix appends to dst the posting lists of every term under key
	// whose value starts with prefix and, when keep is non-nil, passes
	// keep. The result is unsorted and may hold duplicates.
	Prefix(dst []NodeID, key, prefix string, keep func(value string) bool) []NodeID
}

// Exact implements IndexTermSource.
func (ix *Index) Exact(key, value string) []NodeID {
	m := ix.byKey[strings.ToLower(key)]
	if m == nil {
		return nil
	}
	ids := m[value]
	out := make([]NodeID, len(ids))
	copy(out, ids)
	return out
}

// Prefix implements IndexTermSource.
func (ix *Index) Prefix(dst []NodeID, key, prefix string, keep func(string) bool) []NodeID {
	for v, ids := range ix.byKey[strings.ToLower(key)] {
		if strings.HasPrefix(v, prefix) && (keep == nil || keep(v)) {
			dst = append(dst, ids...)
		}
	}
	return dst
}

// EvalIndexQuery evaluates a parsed index query over any term source.
func EvalIndexQuery(q IndexQuery, ts IndexTermSource) []NodeID {
	switch t := q.(type) {
	case *IndexTerm:
		return evalIndexTerm(t, ts)
	case *IndexBool:
		res := EvalIndexQuery(t.Clauses[0], ts)
		for _, c := range t.Clauses[1:] {
			if not, ok := c.(*IndexNot); ok && t.Op == IndexAnd {
				res = subtractIDs(res, EvalIndexQuery(not.Clause, ts))
				continue
			}
			r := EvalIndexQuery(c, ts)
			if t.Op == IndexAnd {
				res = intersectIDs(res, r)
			} else {
				res = unionIDs(res, r)
			}
		}
		return res
	case *IndexNot:
		// A bare NOT (not under an AND) has no universe to negate against;
		// it evaluates to the empty set, as in Lucene.
		return nil
	}
	return nil
}

// evalIndexTerm serves a wildcard term as a range of the key's terms:
// those starting with the literal text before the first wildcard. A
// value whose only wildcard is one trailing '*' is exactly that range;
// any other pattern also filters the range's terms by WildcardMatch.
// The matching posting lists are gathered, then sorted and deduplicated
// once.
func evalIndexTerm(t *IndexTerm, ts IndexTermSource) []NodeID {
	i := strings.IndexAny(t.Value, "*?")
	if i < 0 {
		return ts.Exact(t.Key, t.Value)
	}
	var keep func(string) bool
	if i != len(t.Value)-1 || t.Value[i] != '*' {
		keep = func(v string) bool { return WildcardMatch(t.Value, v) }
	}
	out := ts.Prefix(nil, t.Key, t.Value[:i], keep)
	slices.Sort(out)
	return slices.Compact(out)
}

// WildcardMatch reports whether value matches pattern, where '*' matches
// any run of characters and '?' any single character.
func WildcardMatch(pattern, value string) bool {
	// Iterative glob match with backtracking on the last '*'.
	pi, vi := 0, 0
	star, starV := -1, 0
	for vi < len(value) {
		switch {
		case pi < len(pattern) && (pattern[pi] == '?' || pattern[pi] == value[vi]):
			pi++
			vi++
		case pi < len(pattern) && pattern[pi] == '*':
			star = pi
			starV = vi
			pi++
		case star >= 0:
			pi = star + 1
			starV++
			vi = starV
		default:
			return false
		}
	}
	for pi < len(pattern) && pattern[pi] == '*' {
		pi++
	}
	return pi == len(pattern)
}

func intersectIDs(a, b []NodeID) []NodeID {
	var out []NodeID
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			i++
		case a[i] > b[j]:
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	return out
}

func unionIDs(a, b []NodeID) []NodeID {
	out := make([]NodeID, 0, len(a)+len(b))
	i, j := 0, 0
	for i < len(a) && j < len(b) {
		switch {
		case a[i] < b[j]:
			out = append(out, a[i])
			i++
		case a[i] > b[j]:
			out = append(out, b[j])
			j++
		default:
			out = append(out, a[i])
			i++
			j++
		}
	}
	out = append(out, a[i:]...)
	out = append(out, b[j:]...)
	return out
}

func subtractIDs(a, b []NodeID) []NodeID {
	var out []NodeID
	j := 0
	for _, x := range a {
		for j < len(b) && b[j] < x {
			j++
		}
		if j < len(b) && b[j] == x {
			continue
		}
		out = append(out, x)
	}
	return out
}

// --- index query language ---

// IndexQuery is a parsed node_auto_index query.
type IndexQuery interface{ indexQuery() }

// IndexTerm is a single `key: value` clause.
type IndexTerm struct {
	Key   string
	Value string
}

// IndexBoolOp is AND or OR.
type IndexBoolOp int

// Boolean operators for index queries.
const (
	IndexOr IndexBoolOp = iota
	IndexAnd
)

// IndexBool combines clauses with one operator.
type IndexBool struct {
	Op      IndexBoolOp
	Clauses []IndexQuery
}

// IndexNot negates a clause (only useful under AND).
type IndexNot struct{ Clause IndexQuery }

func (*IndexTerm) indexQuery() {}
func (*IndexBool) indexQuery() {}
func (*IndexNot) indexQuery()  {}

type indexParser struct {
	s   string
	pos int
}

// ParseIndexQuery parses the Lucene-flavoured query syntax described on
// Index. The grammar:
//
//	query  := or
//	or     := and ((OR|ε) and)*        // adjacency means OR
//	and    := unary (AND unary)*
//	unary  := NOT unary | primary
//	primary:= '(' query ')' | key ':' value
func ParseIndexQuery(s string) (IndexQuery, error) {
	p := &indexParser{s: s}
	q, err := p.parseOr()
	if err != nil {
		return nil, err
	}
	p.skipSpace()
	if p.pos != len(p.s) {
		return nil, fmt.Errorf("index query: unexpected %q at offset %d", p.s[p.pos:], p.pos)
	}
	return q, nil
}

func (p *indexParser) parseOr() (IndexQuery, error) {
	first, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	clauses := []IndexQuery{first}
	for {
		save := p.pos
		if p.keyword("OR") {
			// explicit OR
		} else if p.peekClauseStart() {
			// implicit OR by adjacency
		} else {
			p.pos = save
			break
		}
		c, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, c)
	}
	if len(clauses) == 1 {
		return clauses[0], nil
	}
	return &IndexBool{Op: IndexOr, Clauses: clauses}, nil
}

func (p *indexParser) parseAnd() (IndexQuery, error) {
	first, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	clauses := []IndexQuery{first}
	for p.keyword("AND") {
		c, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		clauses = append(clauses, c)
	}
	if len(clauses) == 1 {
		return clauses[0], nil
	}
	return &IndexBool{Op: IndexAnd, Clauses: clauses}, nil
}

func (p *indexParser) parseUnary() (IndexQuery, error) {
	if p.keyword("NOT") {
		c, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &IndexNot{Clause: c}, nil
	}
	return p.parsePrimary()
}

func (p *indexParser) parsePrimary() (IndexQuery, error) {
	p.skipSpace()
	if p.pos < len(p.s) && p.s[p.pos] == '(' {
		p.pos++
		q, err := p.parseOr()
		if err != nil {
			return nil, err
		}
		p.skipSpace()
		if p.pos >= len(p.s) || p.s[p.pos] != ')' {
			return nil, fmt.Errorf("index query: missing ')' at offset %d", p.pos)
		}
		p.pos++
		return q, nil
	}
	key := p.token(false)
	if key == "" {
		return nil, fmt.Errorf("index query: expected term at offset %d", p.pos)
	}
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] != ':' {
		return nil, fmt.Errorf("index query: expected ':' after key %q", key)
	}
	p.pos++
	p.skipSpace()
	val := p.token(true)
	if val == "" {
		return nil, fmt.Errorf("index query: expected value after %q:", key)
	}
	return &IndexTerm{Key: key, Value: val}, nil
}

func (p *indexParser) skipSpace() {
	for p.pos < len(p.s) && (p.s[p.pos] == ' ' || p.s[p.pos] == '\t' || p.s[p.pos] == '\n' || p.s[p.pos] == '\r') {
		p.pos++
	}
}

// keyword consumes an upper/lower-case keyword followed by a boundary.
func (p *indexParser) keyword(kw string) bool {
	save := p.pos
	p.skipSpace()
	if p.pos+len(kw) > len(p.s) || !eqFold(p.s[p.pos:p.pos+len(kw)], kw) {
		p.pos = save
		return false
	}
	end := p.pos + len(kw)
	if end < len(p.s) {
		c := p.s[end]
		if c != ' ' && c != '\t' && c != '\n' && c != '(' && c != ')' {
			p.pos = save
			return false
		}
	}
	p.pos = end
	return true
}

func (p *indexParser) peekClauseStart() bool {
	save := p.pos
	p.skipSpace()
	if p.pos >= len(p.s) || p.s[p.pos] == ')' {
		p.pos = save
		return false
	}
	// Do not treat a dangling AND/OR as a clause.
	if p.s[p.pos] == '(' {
		return true
	}
	c := p.s[p.pos]
	ok := c == '_' || c == '\'' || c == '"' ||
		('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
	if !ok {
		p.pos = save
	}
	return ok
}

// token reads a bare or quoted token. Values (isValue) admit wildcard and
// punctuation characters that appear in symbol names and file names.
func (p *indexParser) token(isValue bool) string {
	p.skipSpace()
	if p.pos < len(p.s) && (p.s[p.pos] == '\'' || p.s[p.pos] == '"') {
		quote := p.s[p.pos]
		p.pos++
		start := p.pos
		for p.pos < len(p.s) && p.s[p.pos] != quote {
			p.pos++
		}
		tok := p.s[start:p.pos]
		if p.pos < len(p.s) {
			p.pos++
		}
		return tok
	}
	start := p.pos
	for p.pos < len(p.s) {
		c := p.s[p.pos]
		bare := c == '_' || ('a' <= c && c <= 'z') || ('A' <= c && c <= 'Z') || ('0' <= c && c <= '9')
		if isValue {
			bare = bare || c == '*' || c == '?' || c == '.' || c == '/' || c == '-' || c == ':'
		}
		if !bare {
			break
		}
		p.pos++
	}
	return p.s[start:p.pos]
}
