package query

import "frappe/internal/graph"

// Query is a parsed Cypher query: an ordered list of clauses.
type Query struct {
	Clauses []Clause
	Source  string // original text, for error reporting
}

// Clause is one of StartClause, MatchClause, WhereClause, WithClause,
// ReturnClause.
type Clause interface{ clause() }

// StartClause is Cypher 1.x's START: explicit anchor points.
type StartClause struct {
	Items []StartItem
}

// StartItem binds one variable to index results, explicit IDs, or all
// nodes.
type StartItem struct {
	Var        string
	IndexName  string // e.g. node_auto_index; empty for ID/all forms
	IndexQuery string // the Lucene query string
	IDs        []graph.NodeID
	All        bool
}

// MatchClause matches one or more comma-separated patterns. Optional
// marks OPTIONAL MATCH (unmatched rows survive with nulls).
type MatchClause struct {
	Patterns []*Pattern
	Optional bool
}

// WhereClause filters rows. In Cypher a WHERE belongs to the preceding
// MATCH/START/WITH, which is equivalent to filtering at this pipeline
// position for the subset we support.
type WhereClause struct {
	Cond Expr
}

// WithClause projects the row set mid-pipeline.
type WithClause struct {
	Distinct bool
	Items    []ReturnItem
	OrderBy  []OrderKey
	Skip     Expr
	Limit    Expr
}

// ReturnClause produces the query result.
type ReturnClause struct {
	Distinct bool
	Items    []ReturnItem
	OrderBy  []OrderKey
	Skip     Expr
	Limit    Expr
}

// ReturnItem is one projected column.
type ReturnItem struct {
	Expr  Expr
	Alias string // column name; defaults to the expression's text
}

// OrderKey is one ORDER BY key.
type OrderKey struct {
	Expr Expr
	Desc bool
}

func (*StartClause) clause()  {}
func (*MatchClause) clause()  {}
func (*WhereClause) clause()  {}
func (*WithClause) clause()   {}
func (*ReturnClause) clause() {}

// Pattern is a linear node-rel-node-... chain, optionally bound to a
// path variable and optionally wrapped in shortestPath(...).
type Pattern struct {
	Nodes []*NodePattern // len(Nodes) == len(Rels)+1
	Rels  []*RelPattern
	// PathVar binds the matched path (MATCH p = ...).
	PathVar string
	// Shortest marks shortestPath(...): both endpoints must be bound and
	// the single relationship pattern is searched breadth-first.
	Shortest bool
	// AllShortest marks allShortestPaths(...): every minimum-length path.
	AllShortest bool
}

// NodePattern matches a node: optional variable, labels, property map.
// A bare identifier (Cypher 1.x style, e.g. `m -[:x]-> f`) parses as a
// NodePattern with only Var set.
type NodePattern struct {
	Var    string
	Labels []string
	Props  []PropMatch
}

// RelPattern matches a relationship (or a variable-length chain).
type RelPattern struct {
	Var     string
	Types   []string // empty = any type
	Props   []PropMatch
	ToRight bool // -[]->
	ToLeft  bool // <-[]- ; both false = undirected
	VarLen  bool
	MinHops int // valid when VarLen; default 1
	MaxHops int // 0 = unbounded
}

// PropMatch is one key: literal entry of a {..} map in a pattern.
type PropMatch struct {
	Key string
	Val graph.Value
}

// Expr is an expression tree node.
type Expr interface {
	exprNode()
	// Text reproduces a display form used for default column names.
	Text() string
}

// LiteralExpr is a constant.
type LiteralExpr struct {
	Val  graph.Value
	Null bool // the NULL literal
}

// VarExpr references a bound variable.
type VarExpr struct{ Name string }

// PropExpr accesses a property of a node/edge expression: base.key.
type PropExpr struct {
	Base Expr
	Key  string
}

// BinaryExpr applies an operator.
type BinaryExpr struct {
	Op    string // "AND" "OR" "XOR" "=" "<>" "<" "<=" ">" ">=" "+" "-" "*" "/" "%" "=~"
	L, R  Expr
	OpPos int
}

// UnaryExpr is NOT x or -x.
type UnaryExpr struct {
	Op string // "NOT" "-"
	X  Expr
}

// CallExpr is a function call, possibly aggregating.
type CallExpr struct {
	Name     string // lower-cased
	Distinct bool   // count(DISTINCT x)
	Star     bool   // count(*)
	Args     []Expr
}

// PatternExpr is a pattern used as a predicate (Figure 4/5 of the paper).
type PatternExpr struct{ Pattern *Pattern }

// HasExpr is has(n.prop) / exists(n.prop): property presence.
type HasExpr struct {
	Base Expr
	Key  string
}

func (*LiteralExpr) exprNode() {}
func (*VarExpr) exprNode()     {}
func (*PropExpr) exprNode()    {}
func (*BinaryExpr) exprNode()  {}
func (*UnaryExpr) exprNode()   {}
func (*CallExpr) exprNode()    {}
func (*PatternExpr) exprNode() {}
func (*HasExpr) exprNode()     {}

// Text implementations give stable display names for columns.
func (e *LiteralExpr) Text() string {
	if e.Null {
		return "NULL"
	}
	if e.Val.Kind() == graph.KindString {
		return "\"" + e.Val.AsString() + "\""
	}
	return e.Val.String()
}
func (e *VarExpr) Text() string  { return e.Name }
func (e *PropExpr) Text() string { return e.Base.Text() + "." + e.Key }
func (e *BinaryExpr) Text() string {
	return e.L.Text() + " " + e.Op + " " + e.R.Text()
}
func (e *UnaryExpr) Text() string { return e.Op + " " + e.X.Text() }
func (e *CallExpr) Text() string {
	s := e.Name + "("
	if e.Distinct {
		s += "distinct "
	}
	if e.Star {
		s += "*"
	}
	for i, a := range e.Args {
		if i > 0 {
			s += ", "
		}
		s += a.Text()
	}
	return s + ")"
}
func (e *PatternExpr) Text() string { return "<pattern>" }
func (e *HasExpr) Text() string     { return "has(" + e.Base.Text() + "." + e.Key + ")" }

// IsAggregate reports whether an expression contains an aggregate call
// (exported for the planner's multiplicity-invariance analysis).
func IsAggregate(e Expr) bool { return isAggregate(e) }

// isAggregate reports whether the expression contains an aggregating call.
func isAggregate(e Expr) bool {
	switch t := e.(type) {
	case *CallExpr:
		switch t.Name {
		case "count", "sum", "min", "max", "avg", "collect":
			return true
		}
		for _, a := range t.Args {
			if isAggregate(a) {
				return true
			}
		}
	case *BinaryExpr:
		return isAggregate(t.L) || isAggregate(t.R)
	case *UnaryExpr:
		return isAggregate(t.X)
	case *PropExpr:
		return isAggregate(t.Base)
	}
	return false
}
