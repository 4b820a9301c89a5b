package query

import (
	"fmt"
	"strings"

	"frappe/internal/graph"
	"frappe/internal/traversal"
)

// ValKind discriminates runtime values flowing through a query.
type ValKind int

// Runtime value kinds.
const (
	ValNull ValKind = iota
	ValScalar
	ValNode
	ValEdge
	ValList
	ValPath
)

// Val is a runtime value: null, a scalar property value, a node
// reference, an edge reference, a list (from variable-length
// relationship bindings and collect()), or a path (from path bindings
// and shortestPath()).
type Val struct {
	Kind   ValKind
	Node   graph.NodeID
	Edge   graph.EdgeID
	Scalar graph.Value
	List   []Val
	Path   traversal.Path
}

// PathVal wraps a path.
func PathVal(p traversal.Path) Val { return Val{Kind: ValPath, Path: p} }

// Null value singleton.
var nullVal = Val{Kind: ValNull}

// NodeVal wraps a node reference.
func NodeVal(id graph.NodeID) Val { return Val{Kind: ValNode, Node: id} }

// EdgeVal wraps an edge reference.
func EdgeVal(id graph.EdgeID) Val { return Val{Kind: ValEdge, Edge: id} }

// ScalarVal wraps a property value.
func ScalarVal(v graph.Value) Val {
	if v.IsNil() {
		return nullVal
	}
	return Val{Kind: ValScalar, Scalar: v}
}

// ListVal wraps a list.
func ListVal(vs []Val) Val { return Val{Kind: ValList, List: vs} }

// IsNull reports whether the value is null.
func (v Val) IsNull() bool { return v.Kind == ValNull }

// Truthy reports the boolean interpretation (null is false).
func (v Val) Truthy() bool {
	switch v.Kind {
	case ValScalar:
		return v.Scalar.AsBool()
	case ValNode, ValEdge:
		return true
	case ValList:
		return len(v.List) > 0
	case ValPath:
		return true
	}
	return false
}

// Equal compares two runtime values; null equals nothing (Cypher's null
// equality is null, which filters as false).
func (v Val) Equal(o Val) bool {
	if v.Kind == ValNull || o.Kind == ValNull {
		return false
	}
	if v.Kind != o.Kind {
		return false
	}
	switch v.Kind {
	case ValScalar:
		return v.Scalar.Equal(o.Scalar)
	case ValNode:
		return v.Node == o.Node
	case ValEdge:
		return v.Edge == o.Edge
	case ValList:
		if len(v.List) != len(o.List) {
			return false
		}
		for i := range v.List {
			if !v.List[i].Equal(o.List[i]) {
				return false
			}
		}
		return true
	case ValPath:
		if v.Path.Start != o.Path.Start || len(v.Path.Steps) != len(o.Path.Steps) {
			return false
		}
		for i := range v.Path.Steps {
			if v.Path.Steps[i] != o.Path.Steps[i] {
				return false
			}
		}
		return true
	}
	return false
}

// key renders a canonical string for DISTINCT / grouping.
func (v Val) key(sb *strings.Builder) {
	switch v.Kind {
	case ValNull:
		sb.WriteString("~")
	case ValNode:
		fmt.Fprintf(sb, "N%d", v.Node)
	case ValEdge:
		fmt.Fprintf(sb, "E%d", v.Edge)
	case ValScalar:
		switch v.Scalar.Kind() {
		case graph.KindInt:
			fmt.Fprintf(sb, "I%d", v.Scalar.AsInt())
		case graph.KindBool:
			fmt.Fprintf(sb, "B%v", v.Scalar.AsBool())
		default:
			fmt.Fprintf(sb, "S%q", v.Scalar.AsString())
		}
	case ValList:
		sb.WriteByte('[')
		for _, x := range v.List {
			x.key(sb)
			sb.WriteByte(',')
		}
		sb.WriteByte(']')
	case ValPath:
		fmt.Fprintf(sb, "P%d", v.Path.Start)
		for _, s := range v.Path.Steps {
			fmt.Fprintf(sb, "-%d>%d", s.Edge, s.Node)
		}
	}
}

// Key returns the canonical grouping key of the value.
func (v Val) Key() string {
	var sb strings.Builder
	v.key(&sb)
	return sb.String()
}

// Format renders the value for human display, resolving node/edge names
// against the source.
func (v Val) Format(s graph.Source) string {
	switch v.Kind {
	case ValNull:
		return "<null>"
	case ValScalar:
		if v.Scalar.Kind() == graph.KindString {
			return "\"" + v.Scalar.AsString() + "\""
		}
		return v.Scalar.String()
	case ValNode:
		name := ""
		if nv, ok := s.NodeProp(v.Node, "SHORT_NAME"); ok {
			name = " " + nv.AsString()
		}
		return fmt.Sprintf("(%s%s)[%d]", s.NodeType(v.Node), name, v.Node)
	case ValEdge:
		_, _, t := s.EdgeEnds(v.Edge)
		return fmt.Sprintf("[:%s][%d]", t, v.Edge)
	case ValList:
		parts := make([]string, len(v.List))
		for i, x := range v.List {
			parts[i] = x.Format(s)
		}
		return "[" + strings.Join(parts, ", ") + "]"
	case ValPath:
		var sb strings.Builder
		sb.WriteString(NodeVal(v.Path.Start).Format(s))
		for _, st := range v.Path.Steps {
			_, _, t := s.EdgeEnds(st.Edge)
			fmt.Fprintf(&sb, " -[:%s]-> %s", t, NodeVal(st.Node).Format(s))
		}
		return sb.String()
	}
	return "?"
}

// valUnbound marks a row slot whose variable has no binding yet. It
// never leaves a row: reading an unbound variable is an error.
const valUnbound ValKind = -1

var unboundVal = Val{Kind: valUnbound}

// scope numbers the variables visible between two projections: the
// variables START and MATCH bind (pattern predicates included) up to
// the next WITH, whose columns open the next scope. The executor
// resolves every clause's variables against its scope once, at setup.
type scope struct {
	names []string
}

// slot returns the slot of name, or -1.
func (sc *scope) slot(name string) int {
	if sc == nil {
		return -1
	}
	for i, n := range sc.names {
		if n == name {
			return i
		}
	}
	return -1
}

// add returns the slot of name, numbering it first if it is new.
func (sc *scope) add(name string) int {
	if i := sc.slot(name); i >= 0 {
		return i
	}
	sc.names = append(sc.names, name)
	return len(sc.names) - 1
}

// newRow returns a row of the scope with every slot unbound.
func (sc *scope) newRow() Row {
	vals := make([]Val, len(sc.names))
	for i := range vals {
		vals[i] = unboundVal
	}
	return Row{sc: sc, vals: vals}
}

// Row is one set of variable bindings: slot i of vals binds the
// variable its scope numbers i. Expansion binds and unbinds slots in
// place, so a row handed downstream is only valid until the call
// returns; a stage that keeps it (a blocking projection) clones it.
type Row struct {
	sc   *scope
	vals []Val
}

// get returns the binding of the variable name, if it has one.
func (r Row) get(name string) (Val, bool) {
	i := r.sc.slot(name)
	if i < 0 || r.vals[i].Kind == valUnbound {
		return nullVal, false
	}
	return r.vals[i], true
}

func (r Row) clone() Row {
	return Row{sc: r.sc, vals: append([]Val(nil), r.vals...)}
}
