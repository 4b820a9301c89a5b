package extract

import (
	"frappe/internal/cparse"
	"frappe/internal/cpp"
	"frappe/internal/graph"
	"frappe/internal/model"
)

// category classifies what a name resolved to.
type category int

const (
	catNone category = iota
	catVar           // global, local, static_local or parameter
	catFunc
	catEnumerator
	catDecl // function_decl or global_decl (no definition in scope)
)

// refCtx describes how an expression position uses its operand.
type refCtx uint8

const (
	ctxRead refCtx = iota
	ctxWrite
	ctxReadWrite
	ctxAddr
	ctxDeref
)

// walker walks one function body (or one global initialiser), emitting
// reference edges from src.
type walker struct {
	ex     *extractor
	tu     *tuData
	src    graph.NodeID
	fnName string
	scopes []map[string]*symInfo
}

// walkUnit is extraction phase two for one TU.
func (ex *extractor) walkUnit(tu *tuData) {
	for _, og := range tu.ownedGlobals {
		w := &walker{ex: ex, tu: tu, src: og.info.node}
		if og.decl.Init != nil {
			w.walkInit(og.decl.Type, og.decl.Init)
		}
	}
	for _, of := range tu.ownedFuncs {
		w := &walker{ex: ex, tu: tu, src: of.info.node, fnName: of.decl.Name.Text}
		w.push()
		for name, sym := range of.params {
			w.scopes[len(w.scopes)-1][name] = sym
		}
		w.walkStmt(of.decl.Body)
		w.pop()
	}
	ex.walkMacroRecords(tu)
}

// walkMacroRecords emits expands_macro and interrogates_macro edges,
// attributed to the enclosing function when the use site falls inside a
// function body, else to the containing file. Records are deduplicated
// globally by position (the same header expansion is seen by every TU
// including it).
func (ex *extractor) walkMacroRecords(tu *tuData) {
	if ex.seenMacroUse == nil {
		ex.seenMacroUse = map[macroUseKey]bool{}
	}
	emit := func(name string, use cpp.Range, et model.EdgeType) {
		target, ok := ex.macros[name]
		if !ok {
			return // undefined macro interrogation: no node to point at
		}
		key := macroUseKey{name: name, file: use.Start.File, line: use.Start.Line, col: use.Start.Col, et: et}
		if ex.seenMacroUse[key] {
			return
		}
		ex.seenMacroUse[key] = true
		src, found := ex.enclosingFunc(use.Start)
		if !found {
			src = ex.ensureFileNode(use.Start.File)
		}
		ex.g.AddEdgeLoc(src, target, et, refLoc(use, use))
	}
	for _, e := range tu.pp.Expansions {
		emit(e.Macro, e.Use, model.EdgeExpandsMacro)
	}
	for _, r := range tu.pp.Interrogations {
		emit(r.Macro, r.Use, model.EdgeInterrogatesMacro)
	}
}

type macroUseKey struct {
	name string
	file cpp.FileID
	line int32
	col  int32
	et   model.EdgeType
}

func (w *walker) push() { w.scopes = append(w.scopes, map[string]*symInfo{}) }
func (w *walker) pop()  { w.scopes = w.scopes[:len(w.scopes)-1] }

// resolve looks a name up through block scopes, file statics, program
// globals, enumerators and finally external declarations visible in this
// TU.
func (w *walker) resolve(name string) (*symInfo, category) {
	for i := len(w.scopes) - 1; i >= 0; i-- {
		if s, ok := w.scopes[i][name]; ok {
			return s, catVar
		}
	}
	if s, ok := w.tu.statics[name]; ok {
		if s.typ != nil && s.typ.Kind == cparse.TFunc {
			return s, catFunc
		}
		return s, catVar
	}
	if s, ok := w.ex.funcs[name]; ok {
		w.noteExtern(name)
		return s, catFunc
	}
	if s, ok := w.ex.globals[name]; ok {
		w.noteExtern(name)
		return s, catVar
	}
	if s, ok := w.ex.enumerators[name]; ok {
		return s, catEnumerator
	}
	if n, ok := w.tu.declByName[name]; ok {
		w.tu.referencedExterns[name] = n
		return &symInfo{node: n, typ: w.tu.declTypes[name]}, catDecl
	}
	return nil, catNone
}

// noteExtern records that this TU references an external symbol it does
// not itself define — the object file's undefined-symbol table, which
// link_declares/link_matches edges are built from. Even though the
// extractor cross-links the reference straight to the definition, the
// linker-level view still lists the symbol as undefined for this object.
func (w *walker) noteExtern(name string) {
	if w.tu.definedNames[name] {
		return
	}
	if decl, ok := w.tu.declByName[name]; ok {
		w.tu.referencedExterns[name] = decl
	}
}

// ref emits a reference edge from the walker's source.
func (w *walker) ref(et model.EdgeType, to graph.NodeID, use cpp.Range, name cpp.Range) {
	w.ex.g.AddEdgeLoc(w.src, to, et, refLoc(use, name))
}

// --- statements ---

func (w *walker) walkStmt(s cparse.Stmt) {
	switch t := s.(type) {
	case nil:
	case *cparse.BlockStmt:
		w.push()
		for _, it := range t.Items {
			w.walkStmt(it)
		}
		w.pop()
	case *cparse.DeclStmt:
		for _, d := range t.Decls {
			w.walkLocalDecl(d)
		}
	case *cparse.ExprStmt:
		if t.X != nil {
			w.walkExpr(t.X, ctxRead)
		}
	case *cparse.IfStmt:
		w.walkExpr(t.Cond, ctxRead)
		w.walkStmt(t.Then)
		w.walkStmt(t.Else)
	case *cparse.WhileStmt:
		w.walkExpr(t.Cond, ctxRead)
		w.walkStmt(t.Body)
	case *cparse.ForStmt:
		w.push()
		w.walkStmt(t.Init)
		if t.Cond != nil {
			w.walkExpr(t.Cond, ctxRead)
		}
		if t.Post != nil {
			w.walkExpr(t.Post, ctxRead)
		}
		w.walkStmt(t.Body)
		w.pop()
	case *cparse.SwitchStmt:
		w.walkExpr(t.Tag, ctxRead)
		w.walkStmt(t.Body)
	case *cparse.CaseStmt:
		if t.Value != nil {
			w.walkExpr(t.Value, ctxRead)
		}
	case *cparse.ReturnStmt:
		if t.X != nil {
			w.walkExpr(t.X, ctxRead)
		}
	case *cparse.LabelStmt:
		w.walkStmt(t.Stmt)
	case *cparse.BranchStmt:
		// no references
	}
}

// walkLocalDecl creates local/static_local nodes and walks initialisers.
func (w *walker) walkLocalDecl(d cparse.Decl) {
	vd, ok := d.(*cparse.VarDecl)
	if !ok {
		return // block-level typedefs/prototypes: already registered types
	}
	name := vd.Name.Text
	typ := model.NodeLocal
	if vd.Static {
		typ = model.NodeStaticLocal
	}
	qual := name
	if w.fnName != "" {
		qual = w.fnName + "::" + name
	}
	n := w.ex.g.AddNode(typ, graph.P(
		model.PropShortName, name,
		model.PropName, qual,
	))
	w.ex.g.AddEdge(w.src, n, model.EdgeHasLocal, nil)
	w.ex.isaTypeEdge(n, vd.Type, -1)
	w.scopes[len(w.scopes)-1][name] = &symInfo{node: n, typ: vd.Type}
	if vd.Init != nil {
		w.walkInit(vd.Type, vd.Init)
	}
}

// walkInit walks an initialiser of declared type t, resolving designated
// (and positional) initialisers of records to writes_member edges.
func (w *walker) walkInit(t *cparse.Type, init cparse.Expr) {
	il, ok := init.(*cparse.InitList)
	if !ok {
		w.walkExpr(init, ctxRead)
		return
	}
	rt := w.ex.resolveType(t)
	if rt != nil && rt.Kind == cparse.TArray {
		for _, item := range il.Items {
			w.walkInit(rt.Elem, item.Value)
		}
		return
	}
	ri := w.ex.recordOf(t, false)
	if ri == nil {
		for _, item := range il.Items {
			w.walkInit(nil, item.Value)
		}
		return
	}
	pos := 0
	for _, item := range il.Items {
		var fi *fieldInfo
		if item.Designator.Kind == cpp.TokIdent {
			fi = w.ex.lookupField(ri, item.Designator.Text)
			// Re-anchor positional progress at the designated field.
			for i, fname := range ri.order {
				if fname == item.Designator.Text {
					pos = i + 1
					break
				}
			}
			if fi != nil {
				use := cpp.Range{Start: item.Designator.Pos, End: item.Value.Span().End}
				nameR := cpp.Range{Start: item.Designator.Pos, End: item.Designator.End()}
				w.ref(model.EdgeWritesMember, fi.node, use, nameR)
			}
		} else {
			// Positional: advance through named fields.
			for pos < len(ri.order) && ri.order[pos] == "" {
				pos++
			}
			if pos < len(ri.order) {
				fi = ri.fields[ri.order[pos]]
				pos++
			}
		}
		var ft *cparse.Type
		if fi != nil {
			ft = fi.typ
		}
		w.walkInit(ft, item.Value)
	}
}

// --- expressions ---

func (w *walker) walkExpr(e cparse.Expr, ctx refCtx) {
	switch t := e.(type) {
	case nil:
	case *cparse.Ident:
		w.walkIdent(t, ctx, t.Span())
	case *cparse.IntLit, *cparse.StrLit, *cparse.CharLit:
	case *cparse.CallExpr:
		w.walkCall(t)
	case *cparse.MemberExpr:
		w.walkMember(t, ctx)
	case *cparse.IndexExpr:
		w.walkExpr(t.Base, ctx)
		w.walkExpr(t.Idx, ctxRead)
	case *cparse.UnaryExpr:
		switch t.Op {
		case "&":
			w.walkExpr(t.X, ctxAddr)
		case "*":
			w.walkExpr(t.X, ctxDeref)
		case "++", "--":
			w.walkExpr(t.X, ctxReadWrite)
		default:
			w.walkExpr(t.X, ctxRead)
		}
	case *cparse.BinaryExpr:
		w.walkExpr(t.L, ctxRead)
		w.walkExpr(t.R, ctxRead)
	case *cparse.AssignExpr:
		if t.Op == "=" {
			w.walkExpr(t.L, ctxWrite)
		} else {
			w.walkExpr(t.L, ctxReadWrite)
		}
		w.walkExpr(t.R, ctxRead)
	case *cparse.CondExpr:
		w.walkExpr(t.C, ctxRead)
		w.walkExpr(t.T, ctxRead)
		w.walkExpr(t.F, ctxRead)
	case *cparse.CastExpr:
		w.ex.g.AddEdgeLoc(w.src, w.ex.typeNodeOf(t.Type), model.EdgeCastsTo, refLoc(t.Span(), t.Span()))
		if il, ok := t.X.(*cparse.InitList); ok {
			w.walkInit(t.Type, il)
		} else {
			w.walkExpr(t.X, ctxRead)
		}
	case *cparse.SizeofExpr:
		et := model.EdgeGetsSizeOf
		if t.AlignOf {
			et = model.EdgeGetsAlignOf
		}
		typ := t.Type
		if typ == nil && t.X != nil {
			typ = w.inferType(t.X)
			// The operand of sizeof is not evaluated: no reference edges
			// for its subexpressions.
		}
		if typ != nil {
			w.ex.g.AddEdgeLoc(w.src, w.ex.typeNodeOf(typ), et, refLoc(t.Span(), t.Span()))
		}
	case *cparse.CommaExpr:
		w.walkExpr(t.L, ctxRead)
		w.walkExpr(t.R, ctxRead)
	case *cparse.StmtExpr:
		w.walkStmt(t.Block)
	case *cparse.InitList:
		w.walkInit(nil, t)
	}
}

// walkIdent emits the edge for a resolved name use.
func (w *walker) walkIdent(id *cparse.Ident, ctx refCtx, use cpp.Range) {
	sym, cat := w.resolve(id.Tok.Text)
	if sym == nil {
		return
	}
	nameR := id.Span()
	switch cat {
	case catEnumerator:
		w.ref(model.EdgeUsesEnumerator, sym.node, use, nameR)
	case catFunc:
		// A function name outside a call decays to a pointer.
		w.ref(model.EdgeTakesAddressOf, sym.node, use, nameR)
	case catDecl:
		nt := w.ex.g.NodeType(sym.node)
		if nt == model.NodeFunctionDecl {
			w.ref(model.EdgeTakesAddressOf, sym.node, use, nameR)
			return
		}
		w.emitVarRef(sym.node, ctx, use, nameR)
	default:
		w.emitVarRef(sym.node, ctx, use, nameR)
	}
}

func (w *walker) emitVarRef(to graph.NodeID, ctx refCtx, use cpp.Range, name cpp.Range) {
	switch ctx {
	case ctxRead:
		w.ref(model.EdgeReads, to, use, name)
	case ctxWrite:
		w.ref(model.EdgeWrites, to, use, name)
	case ctxReadWrite:
		w.ref(model.EdgeReads, to, use, name)
		w.ref(model.EdgeWrites, to, use, name)
	case ctxAddr:
		w.ref(model.EdgeTakesAddressOf, to, use, name)
	case ctxDeref:
		w.ref(model.EdgeDereferences, to, use, name)
	}
}

func (w *walker) walkCall(c *cparse.CallExpr) {
	if id, ok := c.Fun.(*cparse.Ident); ok {
		sym, cat := w.resolve(id.Tok.Text)
		switch {
		case sym == nil:
			// Unresolved callee (e.g. a compiler builtin): no edge.
		case cat == catFunc:
			w.ref(model.EdgeCalls, sym.node, c.Span(), id.Span())
		case cat == catDecl && w.ex.g.NodeType(sym.node) == model.NodeFunctionDecl:
			w.ref(model.EdgeCalls, sym.node, c.Span(), id.Span())
		default:
			// Calling through a variable (function pointer): the pointer
			// value is read.
			w.emitVarRef(sym.node, ctxRead, c.Span(), id.Span())
		}
	} else {
		w.walkExpr(c.Fun, ctxRead)
	}
	for _, a := range c.Args {
		w.walkExpr(a, ctxRead)
	}
}

// walkMember resolves base.field / base->field to the field node.
func (w *walker) walkMember(m *cparse.MemberExpr, ctx refCtx) {
	baseT := w.inferType(m.Base)
	ri := w.ex.recordOf(baseT, m.Arrow)
	if ri != nil {
		if fi := w.ex.lookupField(ri, m.Name.Text); fi != nil {
			use := m.Span()
			nameR := cpp.Range{Start: m.Name.Pos, End: m.Name.End()}
			switch ctx {
			case ctxRead:
				w.ref(model.EdgeReadsMember, fi.node, use, nameR)
			case ctxWrite:
				w.ref(model.EdgeWritesMember, fi.node, use, nameR)
			case ctxReadWrite:
				w.ref(model.EdgeReadsMember, fi.node, use, nameR)
				w.ref(model.EdgeWritesMember, fi.node, use, nameR)
			case ctxAddr:
				w.ref(model.EdgeTakesAddressOfMember, fi.node, use, nameR)
			case ctxDeref:
				w.ref(model.EdgeDereferencesMember, fi.node, use, nameR)
			}
		}
	}
	// The base expression: an arrow access reads the pointer; a dot
	// access propagates writes into the containing object.
	if m.Arrow {
		w.walkExpr(m.Base, ctxRead)
		return
	}
	switch ctx {
	case ctxWrite, ctxReadWrite:
		w.walkExpr(m.Base, ctx)
	default:
		w.walkExpr(m.Base, ctxRead)
	}
}

// --- type inference ---

// resolveType follows typedef chains to a concrete type.
func (ex *extractor) resolveType(t *cparse.Type) *cparse.Type {
	for depth := 0; t != nil && t.Kind == cparse.TTypedef && depth < 32; depth++ {
		ti, ok := ex.typedefs[t.Name]
		if !ok {
			return t
		}
		t = ti.typ
	}
	return t
}

// recordOf resolves a (possibly typedef'd, possibly pointer) type to its
// record info; deref strips one pointer/array level first (-> access).
func (ex *extractor) recordOf(t *cparse.Type, deref bool) *recordInfo {
	rt := ex.resolveType(t)
	if rt == nil {
		return nil
	}
	if deref {
		if rt.Kind != cparse.TPointer && rt.Kind != cparse.TArray {
			return nil
		}
		rt = ex.resolveType(rt.Elem)
		if rt == nil {
			return nil
		}
	}
	switch rt.Kind {
	case cparse.TStruct, cparse.TUnion:
		return ex.records[rt.Name]
	}
	return nil
}

// lookupField finds a named field, descending into anonymous members.
func (ex *extractor) lookupField(ri *recordInfo, name string) *fieldInfo {
	if fi, ok := ri.fields[name]; ok {
		return fi
	}
	for _, at := range ri.anon {
		if sub := ex.recordOf(at, false); sub != nil {
			if fi := ex.lookupField(sub, name); fi != nil {
				return fi
			}
		}
	}
	return nil
}

var intType = &cparse.Type{Kind: cparse.TPrimitive, Name: "int"}
var charType = &cparse.Type{Kind: cparse.TPrimitive, Name: "char"}
var ulongType = &cparse.Type{Kind: cparse.TPrimitive, Name: "unsigned long"}

// inferType computes the semantic type of an expression, sufficient for
// member resolution (not a full C type checker: integer promotions and
// usual arithmetic conversions are approximated).
func (w *walker) inferType(e cparse.Expr) *cparse.Type {
	switch t := e.(type) {
	case *cparse.Ident:
		if sym, _ := w.resolve(t.Tok.Text); sym != nil {
			return sym.typ
		}
		return nil
	case *cparse.IntLit:
		return intType
	case *cparse.CharLit:
		return charType
	case *cparse.StrLit:
		return &cparse.Type{Kind: cparse.TPointer, Elem: charType}
	case *cparse.MemberExpr:
		ri := w.ex.recordOf(w.inferType(t.Base), t.Arrow)
		if ri == nil {
			return nil
		}
		if fi := w.ex.lookupField(ri, t.Name.Text); fi != nil {
			return fi.typ
		}
		return nil
	case *cparse.IndexExpr:
		bt := w.ex.resolveType(w.inferType(t.Base))
		if bt != nil && (bt.Kind == cparse.TPointer || bt.Kind == cparse.TArray) {
			return bt.Elem
		}
		return nil
	case *cparse.UnaryExpr:
		switch t.Op {
		case "*":
			xt := w.ex.resolveType(w.inferType(t.X))
			if xt != nil && (xt.Kind == cparse.TPointer || xt.Kind == cparse.TArray) {
				return xt.Elem
			}
			return nil
		case "&":
			xt := w.inferType(t.X)
			if xt == nil {
				return nil
			}
			return &cparse.Type{Kind: cparse.TPointer, Elem: xt}
		case "!":
			return intType
		default:
			return w.inferType(t.X)
		}
	case *cparse.CallExpr:
		ft := w.ex.resolveType(w.inferType(t.Fun))
		if ft == nil {
			return nil
		}
		if ft.Kind == cparse.TPointer {
			ft = w.ex.resolveType(ft.Elem)
		}
		if ft != nil && ft.Kind == cparse.TFunc {
			return ft.Ret
		}
		return nil
	case *cparse.BinaryExpr:
		switch t.Op {
		case "==", "!=", "<", "<=", ">", ">=", "&&", "||":
			return intType
		}
		// Pointer arithmetic keeps the pointer type.
		lt := w.ex.resolveType(w.inferType(t.L))
		if lt != nil && (lt.Kind == cparse.TPointer || lt.Kind == cparse.TArray) {
			return lt
		}
		rt := w.ex.resolveType(w.inferType(t.R))
		if rt != nil && (rt.Kind == cparse.TPointer || rt.Kind == cparse.TArray) {
			return rt
		}
		if lt != nil {
			return lt
		}
		return rt
	case *cparse.AssignExpr:
		return w.inferType(t.L)
	case *cparse.CondExpr:
		if tt := w.inferType(t.T); tt != nil {
			return tt
		}
		return w.inferType(t.F)
	case *cparse.CastExpr:
		return t.Type
	case *cparse.SizeofExpr:
		return ulongType
	case *cparse.CommaExpr:
		return w.inferType(t.R)
	case *cparse.StmtExpr:
		// The value of a statement expression is its last expression
		// statement.
		if t.Block != nil && len(t.Block.Items) > 0 {
			if es, ok := t.Block.Items[len(t.Block.Items)-1].(*cparse.ExprStmt); ok && es.X != nil {
				return w.inferType(es.X)
			}
		}
		return nil
	}
	return nil
}
