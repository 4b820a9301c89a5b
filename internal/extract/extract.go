// Package extract is Frappé's extractor: it drives the preprocessor and
// parser over every translation unit of a build, models the compile and
// link steps, and emits the paper's dependency graph — every node and
// edge type of Table 1 with the properties of Table 2.
//
// Extraction is two-phase, which is what gives Frappé its cross-linking
// precision: phase one registers every definition across all translation
// units (so a call site in one TU can point at the definition in
// another), phase two walks function bodies emitting reference edges, and
// a final phase models the linker (objects, modules, link_declares,
// link_matches, linked_from with LINK_ORDER).
package extract

import (
	"fmt"
	"path"
	"sort"
	"strings"
	"time"

	"frappe/internal/cparse"
	"frappe/internal/cpp"
	"frappe/internal/graph"
	"frappe/internal/model"
)

// CompileUnit is one compiler invocation captured by the wrapper scripts:
// a source file compiled into an object file.
type CompileUnit struct {
	Source string // path of the .c file
	Object string // path of the produced .o file
}

// Module is one linker invocation: objects (in link order) plus library
// inputs producing an executable or loadable module.
type Module struct {
	Name    string // output name, e.g. wakeup.elf or vmlinux
	Objects []string
	Libs    []string
}

// Build describes a whole captured build.
type Build struct {
	Units   []CompileUnit
	Modules []Module
}

// Options configure an extraction run.
type Options struct {
	FS           cpp.FileProvider
	IncludePaths []string
	Defines      map[string]string // predefined macros (-D)
	Typedefs     []string          // typedef names assumed from unmodelled headers

	// OnFrontend, when non-nil, is invoked with the source path each time
	// a translation unit goes through the frontend (preprocess + parse).
	// The incremental-update tests count these calls to prove that only
	// dirty units are re-extracted. Parallel runs fire it from a single
	// goroutine, in build order, before the workers start.
	OnFrontend func(source string)

	// Jobs bounds frontend parallelism: 0 or 1 runs the frontend
	// serially, n > 1 fans preprocessing and parsing across n workers,
	// and any negative value uses one worker per CPU. Whatever the
	// setting, the merge order is deterministic and the extracted graph
	// is identical to a serial run's.
	Jobs int
}

// Result is the extraction output.
type Result struct {
	Graph  *graph.Graph
	Files  *cpp.FileTable
	Errors []error
	// FileNodes maps file IDs to their graph nodes (needed by the
	// reference-as-node model converter and the code map).
	FileNodes map[cpp.FileID]graph.NodeID
}

// UnitArtifact is the frontend output for one translation unit: the
// preprocessed token stream with its bookkeeping records, and the parsed
// AST. Artifacts are immutable once built — the emission phases only read
// them — so an incremental update can cache the artifact of every clean
// unit and re-run Frontend for just the dirty ones, as long as all
// artifacts fed into one Assemble call share a single cpp.FileTable.
type UnitArtifact struct {
	Unit     CompileUnit
	RootFile cpp.FileID
	PP       *cpp.Result
	AST      *cparse.TranslationUnit
	// Diags holds the unit's preprocessor and parser diagnostics.
	Diags []error
}

// Frontend preprocesses and parses one translation unit — the expensive,
// per-file half of extraction (file IO, include resolution, macro
// expansion, parsing). files interns paths to stable FileIDs and must be
// shared across every unit of a build (nil allocates a throwaway table).
func Frontend(u CompileUnit, opts Options, files *cpp.FileTable) (art *UnitArtifact, err error) {
	if files == nil {
		files = cpp.NewFileTable()
	}
	if opts.OnFrontend != nil {
		opts.OnFrontend(u.Source)
	}
	start := time.Now()
	defer func() { recordFrontend(time.Since(start), err) }()
	pp := newPreprocessor(opts, files)
	res, err := pp.Preprocess(u.Source)
	if err != nil {
		return nil, err
	}
	ast := cparse.Parse(res.Tokens, opts.Typedefs)
	var diags []error
	diags = append(diags, res.Errors...)
	diags = append(diags, ast.Errors...)
	return &UnitArtifact{Unit: u, RootFile: files.Intern(u.Source), PP: res, AST: ast, Diags: diags}, nil
}

// newPreprocessor builds a preprocessor with the options' predefined
// macros applied in sorted (deterministic) order.
func newPreprocessor(opts Options, files *cpp.FileTable) *cpp.Preprocessor {
	pp := cpp.New(opts.FS, opts.IncludePaths, files)
	keys := make([]string, 0, len(opts.Defines))
	for k := range opts.Defines {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		pp.Define(k, opts.Defines[k])
	}
	return pp
}

// Assemble runs the emission phases — entity registration, body walking,
// the linker model, the directory tree — over pre-built artifacts. It is
// the cheap, whole-program half of extraction: no file is read and no
// token is produced here, so re-running it with mostly cached artifacts
// is how an incremental update rebuilds the graph. files must be the
// table the artifacts were built against. nodes and edges reserve room
// in the new graph (graph.NewSized), such as the size of the graph an
// incremental re-assembly replaces; 0 reserves nothing. The result does
// not depend on them.
func Assemble(arts []*UnitArtifact, modules []Module, opts Options, files *cpp.FileTable, nodes, edges int) *Result {
	if files == nil {
		files = cpp.NewFileTable()
	}
	ex := newExtractor(opts, graph.NewSized(nodes, edges))
	ex.files = files
	for _, a := range arts {
		ex.errs = append(ex.errs, a.Diags...)
		ex.tus = append(ex.tus, &tuData{
			unit:              a.Unit,
			rootFile:          a.RootFile,
			ast:               a.AST,
			pp:                a.PP,
			statics:           map[string]*symInfo{},
			declByName:        map[string]graph.NodeID{},
			declTypes:         map[string]*cparse.Type{},
			referencedExterns: map[string]graph.NodeID{},
			definedNames:      map[string]bool{},
		})
	}
	ex.registerEntities()
	for _, tu := range ex.tus {
		ex.walkUnit(tu)
	}
	ex.link(modules)
	ex.buildDirectoryTree()
	return &Result{Graph: ex.g, Files: ex.files, Errors: ex.errs, FileNodes: ex.fileNode}
}

// Run extracts the dependency graph of a build: Frontend over every unit
// (fanned out per opts.Jobs), then one Assemble.
func Run(build Build, opts Options) (*Result, error) {
	files := cpp.NewFileTable()
	unitArts, errs := Frontends(build.Units, opts, files)
	var arts []*UnitArtifact
	var hard []error
	for i, u := range build.Units {
		if a := unitArts[i]; a != nil {
			arts = append(arts, a)
		} else if err := errs[u.Source]; err != nil {
			hard = append(hard, err)
		}
	}
	res := Assemble(arts, build.Modules, opts, files, 0, 0)
	res.Errors = append(hard, res.Errors...)
	return res, nil
}

type symInfo struct {
	node graph.NodeID
	typ  *cparse.Type
}

type fieldInfo struct {
	node graph.NodeID
	typ  *cparse.Type
}

type recordInfo struct {
	node     graph.NodeID
	union    bool
	complete bool
	def      *cparse.RecordDecl
	fields   map[string]*fieldInfo
	order    []string
	anon     []*cparse.Type // anonymous struct/union members, for lookup
}

// ownedFunc pairs a function definition with its node for body walking.
type ownedFunc struct {
	decl   *cparse.FuncDecl
	info   *symInfo
	params map[string]*symInfo
}

// ownedGlobal pairs a global definition with its node.
type ownedGlobal struct {
	decl *cparse.VarDecl
	info *symInfo
}

type enumInfo struct {
	node     graph.NodeID
	complete bool
}

type typedefInfo struct {
	node graph.NodeID
	typ  *cparse.Type
}

type declKey struct {
	name string
	file cpp.FileID
	line int32
}

type tuData struct {
	unit     CompileUnit
	rootFile cpp.FileID
	ast      *cparse.TranslationUnit
	pp       *cpp.Result
	statics  map[string]*symInfo // file-static functions and globals
	// declByName and declTypes index this TU's visible external
	// declarations (for reference resolution and linking).
	declByName map[string]graph.NodeID
	declTypes  map[string]*cparse.Type
	// referencedExterns collects names used in this TU that resolve to
	// declarations (the linker's undefined symbol table).
	referencedExterns map[string]graph.NodeID
	definedNames      map[string]bool // external names this TU defines
	ownedFuncs        []ownedFunc
	ownedGlobals      []ownedGlobal
	objNode           graph.NodeID
}

type extractor struct {
	opts  Options
	g     *graph.Graph
	files *cpp.FileTable
	errs  []error

	fileNode     map[cpp.FileID]graph.NodeID
	dirNode      map[string]graph.NodeID
	prim         map[string]graph.NodeID
	records      map[string]*recordInfo
	enums        map[string]*enumInfo
	typedefs     map[string]*typedefInfo
	funcTypes    map[string]graph.NodeID
	macros       map[string]graph.NodeID
	enumerators  map[string]*symInfo
	globals      map[string]*symInfo // external-linkage variable definitions
	funcs        map[string]*symInfo // external-linkage function definitions
	declNodes    map[declKey]graph.NodeID
	declByName   map[string]graph.NodeID // any decl node per name (for linking)
	objNodes     map[string]graph.NodeID
	libNodes     map[string]graph.NodeID
	includeSeen  map[[2]cpp.FileID]bool
	funcRanges   map[cpp.FileID][]funcRange
	seenDef      map[declKey]bool
	defByKey     map[declKey]*symInfo // definition info by position (for header-defined statics)
	seenMacroUse map[macroUseKey]bool

	tus []*tuData
}

func newExtractor(opts Options, g *graph.Graph) *extractor {
	return &extractor{
		opts:        opts,
		g:           g,
		fileNode:    map[cpp.FileID]graph.NodeID{},
		dirNode:     map[string]graph.NodeID{},
		prim:        map[string]graph.NodeID{},
		records:     map[string]*recordInfo{},
		enums:       map[string]*enumInfo{},
		typedefs:    map[string]*typedefInfo{},
		funcTypes:   map[string]graph.NodeID{},
		macros:      map[string]graph.NodeID{},
		enumerators: map[string]*symInfo{},
		globals:     map[string]*symInfo{},
		funcs:       map[string]*symInfo{},
		declNodes:   map[declKey]graph.NodeID{},
		declByName:  map[string]graph.NodeID{},
		objNodes:    map[string]graph.NodeID{},
		libNodes:    map[string]graph.NodeID{},
		includeSeen: map[[2]cpp.FileID]bool{},
	}
}

// --- node helpers ---

func (ex *extractor) ensureFileNode(id cpp.FileID) graph.NodeID {
	if n, ok := ex.fileNode[id]; ok {
		return n
	}
	p := ex.files.Path(id)
	// FILE_ID is an extension beyond Table 2: it lets a persisted store
	// resolve USE_FILE_ID/NAME_FILE_ID edge properties back to file nodes
	// without the extractor's in-memory file table.
	n := ex.g.AddNode(model.NodeFile, graph.P(
		model.PropShortName, path.Base(p),
		model.PropName, p,
		"FILE_ID", int64(id),
	))
	ex.fileNode[id] = n
	return n
}

func (ex *extractor) ensurePrim(name string) graph.NodeID {
	if n, ok := ex.prim[name]; ok {
		return n
	}
	n := ex.g.AddNode(model.NodePrimitive, graph.P(
		model.PropShortName, name,
		model.PropName, name,
	))
	ex.prim[name] = n
	return n
}

func (ex *extractor) ensureRecord(tag string, union bool) *recordInfo {
	if ri, ok := ex.records[tag]; ok {
		return ri
	}
	// Referenced but never defined: a forward declaration node.
	typ := model.NodeStructDecl
	if union {
		typ = model.NodeUnionDecl
	}
	kw := "struct"
	if union {
		kw = "union"
	}
	n := ex.g.AddNode(typ, graph.P(
		model.PropShortName, tag,
		model.PropName, kw+" "+tag,
	))
	ri := &recordInfo{node: n, union: union, fields: map[string]*fieldInfo{}}
	ex.records[tag] = ri
	return ri
}

func (ex *extractor) ensureEnum(tag string) *enumInfo {
	if ei, ok := ex.enums[tag]; ok {
		return ei
	}
	n := ex.g.AddNode(model.NodeEnumDef, graph.P(
		model.PropShortName, tag,
		model.PropName, "enum "+tag,
	))
	ei := &enumInfo{node: n}
	ex.enums[tag] = ei
	return ei
}

// ensureFuncType interns a function type node keyed by its signature.
func (ex *extractor) ensureFuncType(t *cparse.Type) graph.NodeID {
	sig := t.String()
	if n, ok := ex.funcTypes[sig]; ok {
		return n
	}
	n := ex.g.AddNode(model.NodeFunctionType, graph.P(
		model.PropShortName, sig,
		model.PropName, sig,
	))
	ex.funcTypes[sig] = n
	ex.g.AddEdge(n, ex.typeNodeOf(t.Ret), model.EdgeHasRetType, nil)
	for i, pt := range t.Params {
		ex.g.AddEdge(n, ex.typeNodeOf(pt), model.EdgeHasParamType, graph.P(model.PropIndex, i))
	}
	return n
}

// typeNodeOf returns the graph node representing the base of a type
// (stripping pointers and arrays, as the paper's isa_type edges do,
// carrying the derivation in QUALIFIERS instead).
func (ex *extractor) typeNodeOf(t *cparse.Type) graph.NodeID {
	base := t.Base()
	if base == nil {
		return ex.ensurePrim("void")
	}
	switch base.Kind {
	case cparse.TPrimitive:
		return ex.ensurePrim(base.Name)
	case cparse.TStruct:
		return ex.ensureRecord(base.Name, false).node
	case cparse.TUnion:
		return ex.ensureRecord(base.Name, true).node
	case cparse.TEnum:
		return ex.ensureEnum(base.Name).node
	case cparse.TTypedef:
		if ti, ok := ex.typedefs[base.Name]; ok {
			return ti.node
		}
		// Unmodelled typedef (seeded via Options.Typedefs): treat as an
		// opaque primitive.
		return ex.ensurePrim(base.Name)
	case cparse.TFunc:
		return ex.ensureFuncType(base)
	}
	return ex.ensurePrim("void")
}

// isaTypeEdge emits value -isa_type-> base with QUALIFIERS/ARRAY_LENGTHS
// (and BIT_WIDTH for bit-fields).
func (ex *extractor) isaTypeEdge(from graph.NodeID, t *cparse.Type, bitWidth int64) {
	props := graph.Props{}
	if q := t.QualCode(); q != "" {
		props = append(props, graph.Prop{Key: model.PropQualifiers, Val: graph.Str(q)})
	}
	if lens := t.ArrayLens(); len(lens) > 0 {
		parts := make([]string, len(lens))
		for i, l := range lens {
			parts[i] = fmt.Sprint(l)
		}
		props = append(props, graph.Prop{Key: model.PropArrayLengths, Val: graph.Str(strings.Join(parts, ","))})
	}
	if bitWidth >= 0 {
		props = append(props, graph.Prop{Key: model.PropBitWidth, Val: graph.Int(bitWidth)})
	}
	ex.g.AddEdge(from, ex.typeNodeOf(t), model.EdgeIsaType, props)
}

// fileContains links a file to a symbol defined at pos. The defining name
// position rides on the edge as NAME_* properties (node properties carry
// no locations in the paper's Table 2; this is how a definition's source
// location stays recoverable).
func (ex *extractor) fileContains(pos cpp.Pos, sym graph.NodeID) {
	if !pos.IsValid() {
		return
	}
	var loc graph.Loc
	loc.Set(graph.LocNameFileID, int32(pos.File))
	loc.Set(graph.LocNameStartLine, pos.Line)
	loc.Set(graph.LocNameStartCol, pos.Col)
	ex.g.AddEdgeLoc(ex.ensureFileNode(pos.File), sym, model.EdgeFileContains, loc)
}

// refLoc builds the USE_*/NAME_* property set of a reference edge
// (Table 2 of the paper): the whole expression range and the
// representative token range.
func refLoc(use cpp.Range, name cpp.Range) graph.Loc {
	var loc graph.Loc
	loc.Set(graph.LocUseFileID, int32(use.Start.File))
	loc.Set(graph.LocUseStartLine, use.Start.Line)
	loc.Set(graph.LocUseStartCol, use.Start.Col)
	loc.Set(graph.LocUseEndLine, use.End.Line)
	loc.Set(graph.LocUseEndCol, use.End.Col)
	loc.Set(graph.LocNameFileID, int32(name.Start.File))
	loc.Set(graph.LocNameStartLine, name.Start.Line)
	loc.Set(graph.LocNameStartCol, name.Start.Col)
	loc.Set(graph.LocNameEndLine, name.End.Line)
	loc.Set(graph.LocNameEndCol, name.End.Col)
	return loc
}

// buildDirectoryTree creates directory nodes and dir_contains edges for
// every interned file path.
func (ex *extractor) buildDirectoryTree() {
	ensureDir := func(p string) graph.NodeID {
		if n, ok := ex.dirNode[p]; ok {
			return n
		}
		short := path.Base(p)
		if p == "." || p == "" {
			short = "/"
		}
		n := ex.g.AddNode(model.NodeDirectory, graph.P(
			model.PropShortName, short,
			model.PropName, p,
		))
		ex.dirNode[p] = n
		return n
	}
	var linkDir func(p string) graph.NodeID
	linkDir = func(p string) graph.NodeID {
		if n, ok := ex.dirNode[p]; ok {
			return n
		}
		n := ensureDir(p)
		if p != "." && p != "" && p != "/" {
			parent := path.Dir(p)
			pn := linkDir(parent)
			ex.g.AddEdge(pn, n, model.EdgeDirContains, nil)
		}
		return n
	}
	// Deterministic order: iterate files by ID.
	for id := cpp.FileID(0); int(id) < ex.files.Len(); id++ {
		fnode, ok := ex.fileNode[id]
		if !ok {
			continue
		}
		dir := path.Dir(ex.files.Path(id))
		dn := linkDir(dir)
		ex.g.AddEdge(dn, fnode, model.EdgeDirContains, nil)
	}
}
