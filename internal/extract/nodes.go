package extract

import (
	"fmt"
	"sort"
	"strings"

	"frappe/internal/cparse"
	"frappe/internal/cpp"
	"frappe/internal/graph"
	"frappe/internal/model"
)

// funcRange locates a function body for expansion attribution.
type funcRange struct {
	start, end cpp.Pos
	node       graph.NodeID
}

// registerEntities is extraction phase one-and-a-half: with every TU
// parsed, create graph nodes for all definitions (records, enums,
// typedefs, functions, globals, macros, declarations) so that phase two
// can resolve references across translation units.
func (ex *extractor) registerEntities() {
	ex.funcRanges = map[cpp.FileID][]funcRange{}
	ex.seenDef = map[declKey]bool{}
	ex.defByKey = map[declKey]*symInfo{}

	// Pass A: record/enum/typedef shells (so cross-references resolve).
	for _, tu := range ex.tus {
		ex.registerTypes(tu)
	}
	// Pass B: type detail edges (field types may reference other records).
	for _, tu := range ex.tus {
		ex.registerTypeDetails(tu)
	}
	// Pass C: symbols (functions, globals, declarations) and macros.
	for _, tu := range ex.tus {
		ex.registerSymbols(tu, tu.declByName)
		ex.registerMacrosAndIncludes(tu)
	}
	// Pass D: declares edges from every declaration to its definition.
	// Iterate in sorted-name order: ranging over the map directly would
	// emit these edges in a different order every run, breaking the
	// byte-reproducibility of the persisted store.
	for _, name := range sortedNames(ex.declByName) {
		decl := ex.declByName[name]
		if def, ok := ex.funcs[name]; ok {
			ex.g.AddEdge(decl, def.node, model.EdgeDeclares, nil)
			continue
		}
		if def, ok := ex.globals[name]; ok {
			ex.g.AddEdge(decl, def.node, model.EdgeDeclares, nil)
		}
	}
}

// sortedNames returns m's keys in sorted order, for deterministic
// edge-emission over name-keyed maps.
func sortedNames(m map[string]graph.NodeID) []string {
	names := make([]string, 0, len(m))
	for name := range m {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}

func (ex *extractor) registerTypes(tu *tuData) {
	for _, rec := range tu.ast.Records {
		if !rec.Complete {
			continue
		}
		ri, exists := ex.records[rec.Tag]
		if exists && ri.complete {
			continue // same header seen from another TU
		}
		if !exists {
			typ := model.NodeStruct
			kw := "struct"
			if rec.Union {
				typ = model.NodeUnion
				kw = "union"
			}
			n := ex.g.AddNode(typ, graph.P(
				model.PropShortName, rec.Tag,
				model.PropName, kw+" "+rec.Tag,
			))
			ri = &recordInfo{node: n, union: rec.Union, fields: map[string]*fieldInfo{}}
			ex.records[rec.Tag] = ri
			pos := rec.Start
			if rec.TagTok.Kind == cpp.TokIdent {
				pos = rec.TagTok.Pos
			}
			ex.fileContains(pos, n)
		}
		if !ri.complete {
			ri.complete = true
			ri.def = rec
			for _, f := range rec.Fields {
				fname := f.Name.Text
				if fname == "" {
					// Anonymous member: kept in order list for lookup
					// recursion, no node of its own.
					ri.order = append(ri.order, "")
					ri.anon = append(ri.anon, f.Type)
					continue
				}
				fn := ex.g.AddNode(model.NodeField, graph.P(
					model.PropShortName, fname,
					model.PropName, rec.Tag+"::"+fname,
				))
				ri.fields[fname] = &fieldInfo{node: fn, typ: f.Type}
				ri.order = append(ri.order, fname)
				ex.g.AddEdge(ri.node, fn, model.EdgeContains, nil)
				ex.fileContains(f.Name.Pos, fn)
			}
		}
	}
	for _, en := range tu.ast.Enums {
		if !en.Complete {
			continue
		}
		ei, exists := ex.enums[en.Tag]
		if exists && ei.complete {
			continue
		}
		if !exists {
			n := ex.g.AddNode(model.NodeEnumDef, graph.P(
				model.PropShortName, en.Tag,
				model.PropName, "enum "+en.Tag,
			))
			ei = &enumInfo{node: n}
			ex.enums[en.Tag] = ei
			pos := en.Start
			if en.TagTok.Kind == cpp.TokIdent {
				pos = en.TagTok.Pos
			}
			ex.fileContains(pos, n)
		}
		if !ei.complete {
			ei.complete = true
			for _, e := range en.Enumerators {
				if _, dup := ex.enumerators[e.Name.Text]; dup {
					continue
				}
				n := ex.g.AddNode(model.NodeEnumerator, graph.P(
					model.PropShortName, e.Name.Text,
					model.PropName, en.Tag+"::"+e.Name.Text,
					model.PropValue, e.Value,
				))
				ex.enumerators[e.Name.Text] = &symInfo{node: n, typ: &cparse.Type{Kind: cparse.TEnum, Name: en.Tag}}
				ex.g.AddEdge(ei.node, n, model.EdgeContains, nil)
				ex.fileContains(e.Name.Pos, n)
			}
		}
	}
	for _, d := range tu.ast.Decls {
		td, ok := d.(*cparse.TypedefDecl)
		if !ok {
			continue
		}
		if _, dup := ex.typedefs[td.Name.Text]; dup {
			continue
		}
		n := ex.g.AddNode(model.NodeTypedef, graph.P(
			model.PropShortName, td.Name.Text,
			model.PropName, td.Name.Text,
		))
		ex.typedefs[td.Name.Text] = &typedefInfo{node: n, typ: td.Type}
		ex.fileContains(td.Name.Pos, n)
	}
}

// registerTypeDetails emits field and typedef isa_type edges once all
// type shells exist.
func (ex *extractor) registerTypeDetails(tu *tuData) {
	for _, rec := range tu.ast.Records {
		ri := ex.records[rec.Tag]
		if ri == nil || ri.def != rec {
			continue // details already emitted by the defining TU
		}
		for _, f := range rec.Fields {
			if f.Name.Text == "" {
				continue
			}
			fi := ri.fields[f.Name.Text]
			ex.isaTypeEdge(fi.node, f.Type, f.BitWidth)
		}
	}
	for _, d := range tu.ast.Decls {
		td, ok := d.(*cparse.TypedefDecl)
		if !ok {
			continue
		}
		ti := ex.typedefs[td.Name.Text]
		if ti == nil || ti.typ != td.Type {
			continue
		}
		ex.isaTypeEdge(ti.node, td.Type, -1)
	}
}

// signature renders the paper's LONG_NAME for a function.
func signature(name string, t *cparse.Type) string {
	var parts []string
	for _, p := range t.Params {
		parts = append(parts, p.String())
	}
	if t.Variadic {
		parts = append(parts, "...")
	}
	return fmt.Sprintf("%s(%s)", name, strings.Join(parts, ", "))
}

func (ex *extractor) registerSymbols(tu *tuData, declByName map[string]graph.NodeID) {
	for _, d := range tu.ast.Decls {
		switch t := d.(type) {
		case *cparse.FuncDecl:
			ex.registerFunc(tu, t, declByName)
		case *cparse.VarDecl:
			ex.registerVar(tu, t, declByName)
		}
	}
}

func (ex *extractor) registerFunc(tu *tuData, fd *cparse.FuncDecl, declByName map[string]graph.NodeID) {
	name := fd.Name.Text
	if fd.Body == nil {
		// A declaration (prototype). Deduplicate by position so a header
		// prototype is one node across all TUs that include it.
		key := declKey{name: name, file: fd.Name.Pos.File, line: fd.Name.Pos.Line}
		n, ok := ex.declNodes[key]
		if !ok {
			props := graph.P(
				model.PropShortName, name,
				model.PropName, name,
				model.PropLongName, signature(name, fd.Type),
			)
			if fd.Name.FromMacro != "" {
				props = append(props, graph.Prop{Key: model.PropInMacro, Val: graph.Bool(true)})
			}
			n = ex.g.AddNode(model.NodeFunctionDecl, props)
			ex.declNodes[key] = n
			ex.declByName[name] = n
			ex.fileContains(fd.Name.Pos, n)
			ex.g.AddEdge(n, ex.typeNodeOf(fd.Type.Ret), model.EdgeHasRetType, nil)
		}
		declByName[name] = n
		tu.declTypes[name] = fd.Type
		return
	}

	key := declKey{name: name, file: fd.Name.Pos.File, line: fd.Name.Pos.Line}
	if ex.seenDef[key] {
		// Header-defined (static inline) function already owned by an
		// earlier TU: make it resolvable in this TU too.
		if info := ex.defByKey[key]; info != nil && fd.Static {
			tu.statics[name] = info
		}
		if !fd.Static {
			tu.definedNames[name] = true
		}
		return
	}
	ex.seenDef[key] = true
	if !fd.Static {
		if _, dup := ex.funcs[name]; dup {
			// Duplicate external definition; keep the first (as a linker
			// would report a multiple-definition error).
			ex.errs = append(ex.errs, fmt.Errorf("extract: multiple definition of %q", name))
			return
		}
	}
	props := graph.P(
		model.PropShortName, name,
		model.PropName, name,
		model.PropLongName, signature(name, fd.Type),
	)
	if fd.Variadic {
		props = append(props, graph.Prop{Key: model.PropVariadic, Val: graph.Bool(true)})
	}
	if fd.Name.FromMacro != "" {
		props = append(props, graph.Prop{Key: model.PropInMacro, Val: graph.Bool(true)})
	}
	n := ex.g.AddNode(model.NodeFunction, props)
	info := &symInfo{node: n, typ: fd.Type}
	ex.defByKey[key] = info
	if fd.Static {
		tu.statics[name] = info
	} else {
		ex.funcs[name] = info
		tu.definedNames[name] = true
	}
	ex.fileContains(fd.Name.Pos, n)
	ex.g.AddEdge(n, ex.typeNodeOf(fd.Type.Ret), model.EdgeHasRetType, nil)
	params := map[string]*symInfo{}
	for _, p := range fd.Params {
		pname := p.Name.Text
		if pname == "" {
			continue
		}
		pn := ex.g.AddNode(model.NodeParameter, graph.P(
			model.PropShortName, pname,
			model.PropName, name+"::"+pname,
		))
		ex.g.AddEdge(n, pn, model.EdgeHasParam, graph.P(model.PropIndex, p.Index))
		ex.isaTypeEdge(pn, p.Type, -1)
		params[pname] = &symInfo{node: pn, typ: p.Type}
	}
	// Record the body range for macro-expansion attribution.
	sp := fd.Span()
	ex.funcRanges[sp.Start.File] = append(ex.funcRanges[sp.Start.File], funcRange{
		start: sp.Start, end: sp.End, node: n,
	})
	tu.ownedFuncs = append(tu.ownedFuncs, ownedFunc{decl: fd, info: info, params: params})
}

func (ex *extractor) registerVar(tu *tuData, vd *cparse.VarDecl, declByName map[string]graph.NodeID) {
	name := vd.Name.Text
	if vd.Extern && vd.Init == nil {
		key := declKey{name: name, file: vd.Name.Pos.File, line: vd.Name.Pos.Line}
		n, ok := ex.declNodes[key]
		if !ok {
			n = ex.g.AddNode(model.NodeGlobalDecl, graph.P(
				model.PropShortName, name,
				model.PropName, name,
			))
			ex.declNodes[key] = n
			ex.declByName[name] = n
			ex.fileContains(vd.Name.Pos, n)
			ex.isaTypeEdge(n, vd.Type, -1)
		}
		declByName[name] = n
		tu.declTypes[name] = vd.Type
		return
	}
	key := declKey{name: name, file: vd.Name.Pos.File, line: vd.Name.Pos.Line}
	if ex.seenDef[key] {
		if info := ex.defByKey[key]; info != nil && vd.Static {
			tu.statics[name] = info
		}
		if !vd.Static {
			tu.definedNames[name] = true
		}
		return
	}
	ex.seenDef[key] = true
	if !vd.Static {
		if _, dup := ex.globals[name]; dup {
			return // tentative re-definition in another TU
		}
	}
	n := ex.g.AddNode(model.NodeGlobal, graph.P(
		model.PropShortName, name,
		model.PropName, name,
	))
	info := &symInfo{node: n, typ: vd.Type}
	ex.defByKey[key] = info
	if vd.Static {
		tu.statics[name] = info
	} else {
		ex.globals[name] = info
		tu.definedNames[name] = true
	}
	ex.fileContains(vd.Name.Pos, n)
	ex.isaTypeEdge(n, vd.Type, -1)
	tu.ownedGlobals = append(tu.ownedGlobals, ownedGlobal{decl: vd, info: info})
}

func (ex *extractor) registerMacrosAndIncludes(tu *tuData) {
	for _, md := range tu.pp.MacroDefs {
		key := declKey{name: md.Name, file: md.File, line: md.Pos.Line}
		if ex.seenDef[key] {
			continue
		}
		ex.seenDef[key] = true
		if _, dup := ex.macros[md.Name]; dup {
			continue // redefinition elsewhere: first node wins
		}
		n := ex.g.AddNode(model.NodeMacro, graph.P(
			model.PropShortName, md.Name,
			model.PropName, md.Name,
		))
		ex.macros[md.Name] = n
		ex.fileContains(md.Pos, n)
	}
	for _, inc := range tu.pp.Includes {
		key := [2]cpp.FileID{inc.From, inc.To}
		if ex.includeSeen[key] {
			continue
		}
		ex.includeSeen[key] = true
		ex.g.AddEdgeLoc(ex.ensureFileNode(inc.From), ex.ensureFileNode(inc.To), model.EdgeIncludes, refLoc(inc.Use, inc.Use))
	}
}

// enclosingFunc finds the function whose body range covers pos.
func (ex *extractor) enclosingFunc(pos cpp.Pos) (graph.NodeID, bool) {
	for _, fr := range ex.funcRanges[pos.File] {
		if posLE(fr.start, pos) && posLE(pos, fr.end) {
			return fr.node, true
		}
	}
	return graph.InvalidID, false
}

func posLE(a, b cpp.Pos) bool {
	if a.Line != b.Line {
		return a.Line < b.Line
	}
	return a.Col <= b.Col
}
