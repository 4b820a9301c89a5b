package query

import (
	"fmt"
	"strings"

	"frappe/internal/graph"
	"frappe/internal/model"
)

// evalExpr evaluates a non-aggregate expression against a row.
func (ex *exec) evalExpr(e Expr, row Row) (Val, error) {
	switch t := e.(type) {
	case *LiteralExpr:
		if t.Null {
			return nullVal, nil
		}
		return ScalarVal(t.Val), nil

	case *VarExpr:
		v, ok := row.get(t.Name)
		if !ok {
			return nullVal, &unknownVarError{name: t.Name}
		}
		return v, nil

	case *PropExpr:
		base, err := ex.evalExpr(t.Base, row)
		if err != nil {
			return nullVal, err
		}
		switch base.Kind {
		case ValNull:
			return nullVal, nil
		case ValNode:
			if v, ok := ex.src.NodeProp(base.Node, t.Key); ok {
				return ScalarVal(v), nil
			}
			return nullVal, nil
		case ValEdge:
			if v, ok := ex.src.EdgeProp(base.Edge, t.Key); ok {
				return ScalarVal(v), nil
			}
			return nullVal, nil
		}
		return nullVal, ex.errf("property access on a %s value", kindName(base.Kind))

	case *HasExpr:
		base, err := ex.evalExpr(t.Base, row)
		if err != nil {
			return nullVal, err
		}
		switch base.Kind {
		case ValNode:
			_, ok := ex.src.NodeProp(base.Node, t.Key)
			return ScalarVal(graph.Bool(ok)), nil
		case ValEdge:
			_, ok := ex.src.EdgeProp(base.Edge, t.Key)
			return ScalarVal(graph.Bool(ok)), nil
		}
		return ScalarVal(graph.Bool(false)), nil

	case *UnaryExpr:
		x, err := ex.evalExpr(t.X, row)
		if err != nil {
			return nullVal, err
		}
		return ex.unary(t.Op, x)

	case *BinaryExpr:
		return ex.evalBinary(t, row)

	case *PatternExpr:
		ok, err := ex.patternHolds(t.Pattern, row)
		if err != nil {
			return nullVal, err
		}
		return ScalarVal(graph.Bool(ok)), nil

	case *CallExpr:
		return ex.evalCall(t, row)
	}
	return nullVal, ex.errf("cannot evaluate %T", e)
}

// unary applies a unary operator to an evaluated operand.
func (ex *exec) unary(op string, x Val) (Val, error) {
	switch op {
	case "NOT":
		if x.IsNull() {
			return nullVal, nil
		}
		return ScalarVal(graph.Bool(!x.Truthy())), nil
	case "-":
		if x.IsNull() {
			return nullVal, nil
		}
		if x.Kind != ValScalar || x.Scalar.Kind() != graph.KindInt {
			return nullVal, ex.errf("unary minus on non-integer")
		}
		return ScalarVal(graph.Int(-x.Scalar.AsInt())), nil
	}
	return nullVal, ex.errf("unknown unary operator %q", op)
}

func kindName(k ValKind) string {
	switch k {
	case ValNull:
		return "null"
	case ValScalar:
		return "scalar"
	case ValNode:
		return "node"
	case ValEdge:
		return "relationship"
	case ValList:
		return "list"
	}
	return "?"
}

// evalBinary evaluates both operands, left first, except where AND or
// OR is decided by its left operand.
func (ex *exec) evalBinary(t *BinaryExpr, row Row) (Val, error) {
	l, err := ex.evalExpr(t.L, row)
	if err != nil {
		return nullVal, err
	}
	switch {
	case t.Op == "AND" && !l.IsNull() && !l.Truthy():
		return ScalarVal(graph.Bool(false)), nil
	case t.Op == "OR" && !l.IsNull() && l.Truthy():
		return ScalarVal(graph.Bool(true)), nil
	}
	r, err := ex.evalExpr(t.R, row)
	if err != nil {
		return nullVal, err
	}
	return ex.combine(t.Op, l, r)
}

// combine applies a binary operator to evaluated operands.
func (ex *exec) combine(op string, l, r Val) (Val, error) {
	switch op {
	case "AND":
		if (!l.IsNull() && !l.Truthy()) || (!r.IsNull() && !r.Truthy()) {
			return ScalarVal(graph.Bool(false)), nil
		}
		if l.IsNull() || r.IsNull() {
			return nullVal, nil
		}
		return ScalarVal(graph.Bool(true)), nil
	case "OR":
		if (!l.IsNull() && l.Truthy()) || (!r.IsNull() && r.Truthy()) {
			return ScalarVal(graph.Bool(true)), nil
		}
		if l.IsNull() || r.IsNull() {
			return nullVal, nil
		}
		return ScalarVal(graph.Bool(false)), nil
	case "XOR":
		if l.IsNull() || r.IsNull() {
			return nullVal, nil
		}
		return ScalarVal(graph.Bool(l.Truthy() != r.Truthy())), nil
	}
	if l.IsNull() || r.IsNull() {
		return nullVal, nil
	}

	switch op {
	case "=":
		return ScalarVal(graph.Bool(l.Equal(r))), nil
	case "<>":
		return ScalarVal(graph.Bool(!l.Equal(r))), nil
	case "<", "<=", ">", ">=":
		if l.Kind != ValScalar || r.Kind != ValScalar {
			return nullVal, nil
		}
		c, ok := l.Scalar.Compare(r.Scalar)
		if !ok {
			return nullVal, nil
		}
		var res bool
		switch op {
		case "<":
			res = c < 0
		case "<=":
			res = c <= 0
		case ">":
			res = c > 0
		case ">=":
			res = c >= 0
		}
		return ScalarVal(graph.Bool(res)), nil
	case "IN":
		if r.Kind != ValList {
			return nullVal, nil
		}
		for _, x := range r.List {
			if l.Equal(x) {
				return ScalarVal(graph.Bool(true)), nil
			}
		}
		return ScalarVal(graph.Bool(false)), nil
	case "+":
		if l.Kind == ValScalar && r.Kind == ValScalar &&
			l.Scalar.Kind() == graph.KindString && r.Scalar.Kind() == graph.KindString {
			return ScalarVal(graph.Str(l.Scalar.AsString() + r.Scalar.AsString())), nil
		}
		fallthrough
	case "-", "*", "/", "%":
		if l.Kind != ValScalar || r.Kind != ValScalar ||
			l.Scalar.Kind() != graph.KindInt || r.Scalar.Kind() != graph.KindInt {
			return nullVal, ex.errf("arithmetic %q on non-integers", op)
		}
		a, b := l.Scalar.AsInt(), r.Scalar.AsInt()
		switch op {
		case "+":
			return ScalarVal(graph.Int(a + b)), nil
		case "-":
			return ScalarVal(graph.Int(a - b)), nil
		case "*":
			return ScalarVal(graph.Int(a * b)), nil
		case "/":
			if b == 0 {
				return nullVal, ex.errf("division by zero")
			}
			return ScalarVal(graph.Int(a / b)), nil
		case "%":
			if b == 0 {
				return nullVal, ex.errf("modulo by zero")
			}
			return ScalarVal(graph.Int(a % b)), nil
		}
	case "=~":
		if l.Kind == ValScalar && r.Kind == ValScalar {
			return ScalarVal(graph.Bool(graph.WildcardMatch(r.Scalar.AsString(), l.Scalar.AsString()))), nil
		}
		return nullVal, nil
	}
	return nullVal, ex.errf("unknown operator %q", op)
}

// isAggregateName reports whether the function aggregates over rows.
func isAggregateName(name string) bool {
	switch name {
	case "count", "sum", "min", "max", "avg", "collect":
		return true
	}
	return false
}

func (ex *exec) evalCall(t *CallExpr, row Row) (Val, error) {
	if isAggregateName(t.Name) {
		return nullVal, ex.errf("aggregate function %s() outside RETURN/WITH", t.Name)
	}
	args := make([]Val, len(t.Args))
	for i, a := range t.Args {
		v, err := ex.evalExpr(a, row)
		if err != nil {
			return nullVal, err
		}
		args[i] = v
	}
	return ex.call(t, args)
}

// call applies a scalar function to evaluated arguments.
func (ex *exec) call(t *CallExpr, args []Val) (Val, error) {
	switch t.Name {
	case "id":
		if len(args) != 1 {
			return nullVal, ex.errf("id() takes one argument")
		}
		switch args[0].Kind {
		case ValNode:
			return ScalarVal(graph.Int(int64(args[0].Node))), nil
		case ValEdge:
			return ScalarVal(graph.Int(int64(args[0].Edge))), nil
		case ValNull:
			return nullVal, nil
		}
		return nullVal, ex.errf("id() of a %s", kindName(args[0].Kind))
	case "type":
		if len(args) != 1 || args[0].Kind != ValEdge {
			if len(args) == 1 && args[0].IsNull() {
				return nullVal, nil
			}
			return nullVal, ex.errf("type() takes a relationship")
		}
		_, _, typ := ex.src.EdgeEnds(args[0].Edge)
		return ScalarVal(graph.Str(string(typ))), nil
	case "labels":
		if len(args) != 1 || args[0].Kind != ValNode {
			return nullVal, ex.errf("labels() takes a node")
		}
		nt := ex.src.NodeType(args[0].Node)
		out := []Val{ScalarVal(graph.Str(string(nt)))}
		for _, l := range model.LabelsFor(nt) {
			out = append(out, ScalarVal(graph.Str(l)))
		}
		return ListVal(out), nil
	case "length", "size":
		if len(args) != 1 {
			return nullVal, ex.errf("%s() takes one argument", t.Name)
		}
		switch args[0].Kind {
		case ValList:
			return ScalarVal(graph.Int(int64(len(args[0].List)))), nil
		case ValPath:
			return ScalarVal(graph.Int(int64(args[0].Path.Len()))), nil
		case ValScalar:
			if args[0].Scalar.Kind() == graph.KindString {
				return ScalarVal(graph.Int(int64(len(args[0].Scalar.AsString())))), nil
			}
		case ValNull:
			return nullVal, nil
		}
		return nullVal, ex.errf("%s() of a %s", t.Name, kindName(args[0].Kind))
	case "nodes":
		if len(args) == 1 && args[0].Kind == ValPath {
			ns := args[0].Path.Nodes()
			out := make([]Val, len(ns))
			for i, n := range ns {
				out[i] = NodeVal(n)
			}
			return ListVal(out), nil
		}
		if len(args) == 1 && args[0].IsNull() {
			return nullVal, nil
		}
		return nullVal, ex.errf("nodes() takes a path")
	case "relationships", "rels":
		if len(args) == 1 && args[0].Kind == ValPath {
			out := make([]Val, len(args[0].Path.Steps))
			for i, s := range args[0].Path.Steps {
				out[i] = EdgeVal(s.Edge)
			}
			return ListVal(out), nil
		}
		if len(args) == 1 && args[0].IsNull() {
			return nullVal, nil
		}
		return nullVal, ex.errf("%s() takes a path", t.Name)
	case "coalesce":
		for _, a := range args {
			if !a.IsNull() {
				return a, nil
			}
		}
		return nullVal, nil
	case "head":
		if len(args) == 1 && args[0].Kind == ValList && len(args[0].List) > 0 {
			return args[0].List[0], nil
		}
		return nullVal, nil
	case "last":
		if len(args) == 1 && args[0].Kind == ValList && len(args[0].List) > 0 {
			return args[0].List[len(args[0].List)-1], nil
		}
		return nullVal, nil
	case "tolower", "lower":
		if len(args) == 1 && args[0].Kind == ValScalar {
			return ScalarVal(graph.Str(strings.ToLower(args[0].Scalar.AsString()))), nil
		}
		return nullVal, nil
	case "toupper", "upper":
		if len(args) == 1 && args[0].Kind == ValScalar {
			return ScalarVal(graph.Str(strings.ToUpper(args[0].Scalar.AsString()))), nil
		}
		return nullVal, nil
	case "str":
		if len(args) == 1 {
			return ScalarVal(graph.Str(args[0].Format(ex.src))), nil
		}
		return nullVal, nil
	case "startnode":
		if len(args) == 1 && args[0].Kind == ValEdge {
			f, _, _ := ex.src.EdgeEnds(args[0].Edge)
			return NodeVal(f), nil
		}
		return nullVal, nil
	case "endnode":
		if len(args) == 1 && args[0].Kind == ValEdge {
			_, to, _ := ex.src.EdgeEnds(args[0].Edge)
			return NodeVal(to), nil
		}
		return nullVal, nil
	}
	return nullVal, ex.errf("unknown function %s()", t.Name)
}

// evalAggregate folds an aggregate expression over a group of rows.
func (ex *exec) evalAggregate(e Expr, rows []Row) (Val, error) {
	call, ok := e.(*CallExpr)
	if ok && !isAggregateName(call.Name) {
		// A scalar function over aggregate arguments, e.g.
		// length(collect(m)): fold the arguments first.
		args := make([]Val, len(call.Args))
		for i, a := range call.Args {
			v, err := ex.evalAggOrScalar(a, rows)
			if err != nil {
				return nullVal, err
			}
			args[i] = v
		}
		return ex.call(call, args)
	}
	if !ok {
		// Arithmetic over aggregates, e.g. count(*)+1: evaluate
		// recursively with aggregate leaves folded first.
		switch t := e.(type) {
		case *BinaryExpr:
			l, err := ex.evalAggOrScalar(t.L, rows)
			if err != nil {
				return nullVal, err
			}
			r, err := ex.evalAggOrScalar(t.R, rows)
			if err != nil {
				return nullVal, err
			}
			return ex.combine(t.Op, l, r)
		case *UnaryExpr:
			x, err := ex.evalAggOrScalar(t.X, rows)
			if err != nil {
				return nullVal, err
			}
			return ex.unary(t.Op, x)
		}
		return nullVal, ex.errf("unsupported aggregate expression %q", e.Text())
	}

	if call.Name == "count" && call.Star {
		return ScalarVal(graph.Int(int64(len(rows)))), nil
	}
	if len(call.Args) != 1 {
		return nullVal, ex.errf("%s() takes one argument", call.Name)
	}

	var vals []Val
	seen := make(map[string]bool)
	for _, row := range rows {
		v, err := ex.evalExpr(call.Args[0], row)
		if err != nil {
			return nullVal, err
		}
		if v.IsNull() {
			continue // aggregates skip nulls
		}
		if call.Distinct {
			k := v.Key()
			if seen[k] {
				continue
			}
			seen[k] = true
		}
		vals = append(vals, v)
	}

	switch call.Name {
	case "count":
		return ScalarVal(graph.Int(int64(len(vals)))), nil
	case "collect":
		return ListVal(vals), nil
	case "sum", "avg":
		var total int64
		for _, v := range vals {
			if v.Kind != ValScalar || v.Scalar.Kind() != graph.KindInt {
				return nullVal, ex.errf("%s() over non-integers", call.Name)
			}
			total += v.Scalar.AsInt()
		}
		if call.Name == "sum" {
			return ScalarVal(graph.Int(total)), nil
		}
		if len(vals) == 0 {
			return nullVal, nil
		}
		return ScalarVal(graph.Int(total / int64(len(vals)))), nil
	case "min", "max":
		if len(vals) == 0 {
			return nullVal, nil
		}
		best := vals[0]
		for _, v := range vals[1:] {
			if v.Kind != ValScalar || best.Kind != ValScalar {
				continue
			}
			c, ok := v.Scalar.Compare(best.Scalar)
			if !ok {
				continue
			}
			if (call.Name == "min" && c < 0) || (call.Name == "max" && c > 0) {
				best = v
			}
		}
		return best, nil
	}
	return nullVal, ex.errf("unknown aggregate %s()", call.Name)
}

func (ex *exec) evalAggOrScalar(e Expr, rows []Row) (Val, error) {
	if isAggregate(e) {
		return ex.evalAggregate(e, rows)
	}
	if len(rows) == 0 {
		return nullVal, nil
	}
	return ex.evalExpr(e, rows[0])
}

func (ex *exec) errf(format string, args ...any) error {
	return fmt.Errorf("cypher: %s", fmt.Sprintf(format, args...))
}

// unknownVarError marks references to unbound variables; ORDER BY treats
// these as null (so keys can reference projected columns only), while
// every other context reports them.
type unknownVarError struct{ name string }

func (e *unknownVarError) Error() string {
	return fmt.Sprintf("cypher: unknown variable %q", e.name)
}
