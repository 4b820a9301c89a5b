// Command frappe is the Frappé CLI: index a codebase into a graph store,
// then run the paper's use cases against it — Cypher queries, code
// search, go-to-definition, find-references, program slices, statistics
// and code-map rendering.
//
//	frappe index   -gen [-scale N] -db DIR        index the synthetic kernel
//	frappe index   -src DIR [-cc-log FILE] -db DIR  index a real C tree
//	frappe update  -src DIR|-gen -db DIR          incrementally re-index changed files
//	frappe query   -db DIR 'CYPHER...'            run a Cypher query
//	frappe search  -db DIR -pattern P [-type T] [-module M] [-dir D]
//	frappe def     -db DIR -name N -file F -line L -col C
//	frappe refs    -db DIR -name N [-type T]
//	frappe slice   -db DIR -fn NAME [-forward] [-depth N]
//	frappe stats   -db DIR
//	frappe map     -db DIR -out FILE.svg [-highlight NAME]
//	frappe verify  -db DIR                        fsck a store directory + update journal
//	frappe serve   -db DIR [-src DIR|-gen] [-addr HOST:PORT] ...
//
// serve with -src or -gen keeps the extraction session alive and
// exposes POST /api/admin/update: the server re-extracts only dirty
// translation units and swaps the new graph in atomically while
// queries keep running.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"log/slog"
	"net"
	"os"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"time"

	"frappe/internal/codemap"
	"frappe/internal/core"
	"frappe/internal/cpp"
	"frappe/internal/delta"
	"frappe/internal/extract"
	"frappe/internal/graph"
	"frappe/internal/kernelgen"
	"frappe/internal/model"
	"frappe/internal/obs"
	"frappe/internal/obs/trace"
	"frappe/internal/qcache"
	"frappe/internal/query"
	"frappe/internal/server"
	"frappe/internal/store"
	"frappe/internal/traversal"
)

// version is stamped by the build (-ldflags "-X main.version=...");
// it labels frappe_build_info so scrapes can tell deployments apart.
var version = "dev"

func main() {
	if len(os.Args) < 2 {
		usage()
		os.Exit(2)
	}
	cmd, args := os.Args[1], os.Args[2:]
	var err error
	switch cmd {
	case "index":
		err = cmdIndex(args)
	case "update":
		err = cmdUpdate(args)
	case "query":
		err = cmdQuery(args)
	case "search":
		err = cmdSearch(args)
	case "def":
		err = cmdDef(args)
	case "refs":
		err = cmdRefs(args)
	case "slice":
		err = cmdSlice(args)
	case "stats":
		err = cmdStats(args)
	case "map":
		err = cmdMap(args)
	case "verify":
		err = cmdVerify(args)
	case "serve":
		err = cmdServe(args)
	case "help", "-h", "--help":
		usage()
	default:
		fmt.Fprintf(os.Stderr, "frappe: unknown command %q\n", cmd)
		usage()
		os.Exit(2)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "frappe: %v\n", err)
		os.Exit(1)
	}
}

func usage() {
	fmt.Fprint(os.Stderr, `usage: frappe <command> [flags]

commands:
  index    build a graph store from source (or the synthetic kernel)
  update   incrementally re-index only the files that changed
  query    run a Cypher query against a store
  search   code search by name/type/module/directory
  def      go to definition of a symbol reference
  refs     find references to a symbol
  slice    backward/forward program slice over the call graph
  stats    graph metrics and degree hubs
  map      render the cartographic code map as SVG
  verify   check a store's checksums and structure (fsck)
  serve    HTTP API + query console over a store
`)
}

func openDB(db string) (*core.Engine, error) {
	if db == "" {
		return nil, fmt.Errorf("missing -db")
	}
	return core.Open(db)
}

// sourceFlags are the flags describing where source code comes from,
// shared by index, update, and serve (live mode).
type sourceFlags struct {
	gen      *bool
	scale    *int
	src      *string
	ccLog    *string
	includes *string
	jobs     *int
}

func addSourceFlags(fl *flag.FlagSet) *sourceFlags {
	return &sourceFlags{
		gen:      fl.Bool("gen", false, "use the synthetic Linux-shaped kernel instead of real sources"),
		scale:    fl.Int("scale", 1, "synthetic kernel scale factor"),
		src:      fl.String("src", "", "source tree root (real-code mode)"),
		ccLog:    fl.String("cc-log", "", "frappe-cc build capture (JSON lines); default: compile every .c and link one module"),
		includes: fl.String("I", "include", "comma-separated include paths (relative to -src)"),
		jobs:     fl.Int("j", 0, "extraction frontend workers (0 = one per CPU, 1 = serial)"),
	}
}

// given reports whether any source was specified.
func (sf *sourceFlags) given() bool { return *sf.gen || *sf.src != "" }

// resolve materialises the build description and extraction options.
// Called once per (re-)extraction so update and serve always see the
// current tree (for -src the unit list is rescanned from disk).
func (sf *sourceFlags) resolve() (extract.Build, extract.Options, error) {
	switch {
	case *sf.gen:
		w := kernelgen.Generate(kernelgen.Scaled(*sf.scale))
		opts := w.ExtractOptions()
		opts.Jobs = sf.jobsValue()
		return w.Build, opts, nil
	case *sf.src != "":
		fsys := cpp.DirFS{Root: *sf.src}
		opts := extract.Options{FS: fsys, IncludePaths: strings.Split(*sf.includes, ","), Jobs: sf.jobsValue()}
		build, err := buildFromTree(*sf.src, *sf.ccLog)
		return build, opts, err
	}
	return extract.Build{}, extract.Options{}, fmt.Errorf("needs -gen or -src")
}

// jobsValue maps the -j flag onto extract.Options.Jobs: the flag's
// 0-means-auto default becomes the extractor's negative one-per-CPU
// sentinel.
func (sf *sourceFlags) jobsValue() int {
	if *sf.jobs <= 0 {
		return -1
	}
	return *sf.jobs
}

func printDiagnostics(errs []error) {
	for i, e := range errs {
		if i >= 10 {
			fmt.Fprintf(os.Stderr, "... and %d more diagnostics\n", len(errs)-10)
			break
		}
		fmt.Fprintf(os.Stderr, "warning: %v\n", e)
	}
}

func cmdIndex(args []string) error {
	fl := flag.NewFlagSet("index", flag.ExitOnError)
	sf := addSourceFlags(fl)
	db := fl.String("db", "frappe.db", "output store directory")
	fl.Parse(args)

	start := time.Now()
	build, opts, err := sf.resolve()
	if err != nil {
		return fmt.Errorf("index %w", err)
	}
	if *sf.gen {
		w := kernelgen.Generate(kernelgen.Scaled(*sf.scale))
		fmt.Printf("generated synthetic kernel: %d files, %d lines\n", len(w.FS), w.LineCount())
	}

	sess, res, err := delta.NewSession(build, opts)
	if err != nil {
		return err
	}
	printDiagnostics(res.Errors)
	eng := core.FromGraph(res.Graph)
	m := eng.Stats()
	// Store files, incremental-update state and the restarted journal all
	// land as one crash-consistent commit: a kill mid-index leaves either
	// no store or a complete one, never a store without its state.
	if err := delta.PersistIndex(*db, sess, res.Graph, delta.Record{
		Epoch:            sess.Manifest().Epoch,
		Time:             time.Now().UTC().Format(time.RFC3339),
		FilesAdded:       len(sess.Manifest().Files),
		UnitsReextracted: len(build.Units),
		NodesAdded:       int(m.Nodes),
		EdgesAdded:       int(m.Edges),
		WallMillis:       float64(time.Since(start).Microseconds()) / 1000,
		NodeCount:        m.Nodes,
		EdgeCount:        m.Edges,
	}); err != nil {
		return err
	}
	fmt.Printf("indexed in %v: %d nodes, %d edges (%.2f edges/node) -> %s\n",
		time.Since(start).Round(time.Millisecond), m.Nodes, m.Edges, m.Density, *db)
	return nil
}

// recordOf converts an applied update into its journal record.
func recordOf(up *delta.Update, now time.Time, wall time.Duration) delta.Record {
	return delta.Record{
		Epoch:            up.Epoch,
		Time:             now.UTC().Format(time.RFC3339),
		FilesAdded:       len(up.Plan.Added),
		FilesModified:    len(up.Plan.Modified),
		FilesRemoved:     len(up.Plan.Removed),
		UnitsReextracted: up.Reextracted,
		NodesAdded:       up.Diff.NodesAdded,
		NodesRemoved:     up.Diff.NodesRemoved,
		EdgesAdded:       up.Diff.EdgesAdded,
		EdgesRemoved:     up.Diff.EdgesRemoved,
		WallMillis:       float64(wall.Microseconds()) / 1000,
		NodeCount:        up.Result.Graph.NodeCount(),
		EdgeCount:        up.Result.Graph.EdgeCount(),
	}
}

func summaryOf(rec delta.Record) *core.UpdateSummary {
	return &core.UpdateSummary{
		Epoch:            rec.Epoch,
		Time:             rec.Time,
		FilesAdded:       rec.FilesAdded,
		FilesModified:    rec.FilesModified,
		FilesRemoved:     rec.FilesRemoved,
		UnitsReextracted: rec.UnitsReextracted,
		NodesAdded:       rec.NodesAdded,
		NodesRemoved:     rec.NodesRemoved,
		EdgesAdded:       rec.EdgesAdded,
		EdgesRemoved:     rec.EdgesRemoved,
		WallMillis:       rec.WallMillis,
	}
}

// persistUpdate writes everything an applied update changes — store
// files, session state, journal — as one crash-consistent commit, before
// anything is published.
func persistUpdate(db string, sess *delta.Session, up *delta.Update, wall time.Duration) (delta.Record, error) {
	rec := recordOf(up, time.Now(), wall)
	if err := delta.PersistUpdate(db, sess, up.Result.Graph, rec); err != nil {
		return delta.Record{}, err
	}
	return rec, nil
}

// lastJournalSummary returns the most recent journalled update as an
// engine summary, nil when there is no usable history.
func lastJournalSummary(db string) *core.UpdateSummary {
	recs, err := delta.LoadJournal(db)
	if err != nil || len(recs) == 0 {
		return nil
	}
	return summaryOf(recs[len(recs)-1])
}

func sourceName(sf *sourceFlags) string {
	if *sf.gen {
		return fmt.Sprintf("synthetic kernel (scale %d)", *sf.scale)
	}
	return *sf.src
}

func cmdUpdate(args []string) error {
	fl := flag.NewFlagSet("update", flag.ExitOnError)
	sf := addSourceFlags(fl)
	db := fl.String("db", "frappe.db", "store directory to update")
	fl.Parse(args)

	build, opts, err := sf.resolve()
	if err != nil {
		return fmt.Errorf("update %w", err)
	}
	sess, err := delta.Resume(*db, opts)
	if err != nil {
		return fmt.Errorf("update: %s has no incremental state (re-run frappe index): %w", *db, err)
	}
	old, err := core.Open(*db)
	if err != nil {
		return err
	}
	start := time.Now()
	up, err := sess.Update(build, old.Source())
	old.Close()
	if err != nil {
		return err
	}
	if up.NoOp {
		fmt.Printf("store %s is current at epoch %d; nothing to do\n", *db, up.Epoch)
		return nil
	}
	printDiagnostics(up.Result.Errors)
	wall := time.Since(start)
	rec, err := persistUpdate(*db, sess, up, wall)
	if err != nil {
		return err
	}
	fmt.Printf("updated to epoch %d in %v: re-extracted %d/%d units (+%d/-%d files changed), nodes +%d/-%d, edges +%d/-%d -> %d nodes, %d edges\n",
		rec.Epoch, wall.Round(time.Millisecond), up.Reextracted, len(build.Units),
		len(up.Plan.Added)+len(up.Plan.Modified), len(up.Plan.Removed),
		rec.NodesAdded, rec.NodesRemoved, rec.EdgesAdded, rec.EdgesRemoved,
		rec.NodeCount, rec.EdgeCount)
	return nil
}

// ccRecord is one line of a frappe-cc capture.
type ccRecord struct {
	Kind    string   `json:"kind"` // "compile" | "link"
	Source  string   `json:"source,omitempty"`
	Object  string   `json:"object,omitempty"`
	Output  string   `json:"output,omitempty"`
	Objects []string `json:"objects,omitempty"`
	Libs    []string `json:"libs,omitempty"`
}

func buildFromTree(root, ccLog string) (extract.Build, error) {
	var build extract.Build
	if ccLog != "" {
		f, err := os.Open(ccLog)
		if err != nil {
			return build, err
		}
		defer f.Close()
		dec := json.NewDecoder(f)
		for dec.More() {
			var r ccRecord
			if err := dec.Decode(&r); err != nil {
				return build, fmt.Errorf("cc-log: %w", err)
			}
			switch r.Kind {
			case "compile":
				build.Units = append(build.Units, extract.CompileUnit{Source: r.Source, Object: r.Object})
			case "link":
				build.Modules = append(build.Modules, extract.Module{Name: r.Output, Objects: r.Objects, Libs: r.Libs})
			}
		}
		return build, nil
	}
	// No capture: compile every .c under root, link everything into one
	// module named after the directory.
	var objects []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil || d.IsDir() || !strings.HasSuffix(p, ".c") {
			return err
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		obj := strings.TrimSuffix(rel, ".c") + ".o"
		build.Units = append(build.Units, extract.CompileUnit{Source: rel, Object: obj})
		objects = append(objects, obj)
		return nil
	})
	if err != nil {
		return build, err
	}
	if len(build.Units) == 0 {
		return build, fmt.Errorf("no .c files under %s", root)
	}
	build.Modules = []extract.Module{{Name: filepath.Base(root) + ".elf", Objects: objects}}
	return build, nil
}

func cmdQuery(args []string) error {
	fl := flag.NewFlagSet("query", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	timeout := fl.Duration("timeout", 30*time.Second, "query deadline")
	maxRows := fl.Int("max-rows", 0, "row budget (0 = unlimited)")
	maxSteps := fl.Int64("max-steps", 0, "pattern-expansion budget (0 = unlimited)")
	profile := fl.Bool("profile", false, "trace execution: per-operator rows, DB hits, wall time")
	explain := fl.Bool("explain", false, "print the query plan (anchors, closure rewrites) without executing")
	streamOn := fl.Bool("stream", false, "print rows as they are produced instead of materialising the result (tab-separated)")
	fl.Parse(args)
	if fl.NArg() != 1 {
		return fmt.Errorf("query needs exactly one Cypher string argument")
	}
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	eng.QueryLimits = query.Limits{MaxRows: *maxRows, MaxSteps: *maxSteps}
	if *explain {
		plan, err := eng.ExplainQuery(fl.Arg(0))
		if err != nil {
			return err
		}
		fmt.Print(plan)
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), *timeout)
	defer cancel()
	start := time.Now()
	if *streamOn {
		// Rows print as the executor produces them: memory stays bounded
		// by the stream's channel depth, not the result size.
		snap := eng.Snapshot()
		st, _, err := eng.StreamQuery(ctx, snap, fl.Arg(0), 0)
		if err != nil {
			return err
		}
		cols, err := st.Columns(ctx)
		if err != nil {
			return err
		}
		fmt.Println(strings.Join(cols, "\t"))
		src := snap.Source()
		var n int64
		for row := range st.Rows() {
			cells := make([]string, len(row))
			for i, v := range row {
				cells[i] = v.Format(src)
			}
			fmt.Println(strings.Join(cells, "\t"))
			n++
		}
		if _, _, err := st.Wait(); err != nil {
			return err
		}
		fmt.Printf("%d rows in %v (streamed)\n", n, time.Since(start).Round(time.Microsecond))
		return nil
	}
	if *profile {
		res, prof, err := eng.QueryProfile(ctx, fl.Arg(0))
		if prof != nil {
			// The trace survives an abort: show where the budget went even
			// when the query failed.
			fmt.Print(prof.Format())
		}
		if err != nil {
			return err
		}
		fmt.Print(res.Format(eng.Source()))
		fmt.Printf("%d rows in %v\n", res.Count(), time.Since(start).Round(time.Microsecond))
		return nil
	}
	res, err := eng.Query(ctx, fl.Arg(0))
	if err != nil {
		return err
	}
	fmt.Print(res.Format(eng.Source()))
	fmt.Printf("%d rows in %v\n", res.Count(), time.Since(start).Round(time.Microsecond))
	return nil
}

func cmdSearch(args []string) error {
	fl := flag.NewFlagSet("search", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	pattern := fl.String("pattern", "", "SHORT_NAME pattern (* and ? wildcards)")
	typ := fl.String("type", "", "node type filter (function, struct, macro, ...)")
	module := fl.String("module", "", "restrict to a module (Figure 3)")
	dir := fl.String("dir", "", "restrict to a directory")
	limit := fl.Int("limit", 50, "max results")
	fl.Parse(args)
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	opts := core.SearchOptions{Pattern: *pattern, Module: *module, Dir: *dir, Limit: *limit}
	if *typ != "" {
		opts.Types = []model.NodeType{model.NodeType(*typ)}
	}
	syms, err := eng.Search(context.Background(), opts)
	if err != nil {
		return err
	}
	for _, s := range syms {
		fmt.Println(core.FormatSymbol(s))
	}
	fmt.Printf("%d results\n", len(syms))
	return nil
}

func cmdDef(args []string) error {
	fl := flag.NewFlagSet("def", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	name := fl.String("name", "", "symbol under the cursor")
	file := fl.String("file", "", "file of the reference")
	line := fl.Int("line", 0, "line of the reference")
	col := fl.Int("col", 0, "column of the reference")
	fl.Parse(args)
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	sym, ok, err := eng.GoToDefinition(context.Background(), *name, *file, *line, *col)
	if err != nil {
		return err
	}
	if !ok {
		fmt.Println("no definition found at that position")
		return nil
	}
	fmt.Println(core.FormatSymbol(sym))
	return nil
}

func cmdRefs(args []string) error {
	fl := flag.NewFlagSet("refs", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	name := fl.String("name", "", "symbol name")
	typ := fl.String("type", "", "node type disambiguator")
	fl.Parse(args)
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	id, err := eng.MustLookupOne(*name, model.NodeType(*typ))
	if err != nil {
		return err
	}
	refs, err := eng.FindReferences(context.Background(), id)
	if err != nil {
		return err
	}
	for _, r := range refs {
		fmt.Printf("%-22s %s:%d:%d  (from %s)\n", r.Kind, r.File, r.Line, r.Col, r.From.ShortName)
	}
	fmt.Printf("%d references\n", len(refs))
	return nil
}

func cmdSlice(args []string) error {
	fl := flag.NewFlagSet("slice", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	fn := fl.String("fn", "", "seed function")
	forward := fl.Bool("forward", false, "forward slice (callers) instead of backward (callees)")
	depth := fl.Int("depth", 0, "max depth (0 = unbounded)")
	fl.Parse(args)
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	id, err := eng.MustLookupOne(*fn, model.NodeFunction)
	if err != nil {
		return err
	}
	var syms []core.Symbol
	if *forward {
		syms = eng.ForwardSlice(id, *depth)
	} else {
		syms = eng.BackwardSlice(id, *depth)
	}
	for _, s := range syms {
		fmt.Println(core.FormatSymbol(s))
	}
	fmt.Printf("%d functions in slice\n", len(syms))
	return nil
}

func cmdStats(args []string) error {
	fl := flag.NewFlagSet("stats", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	top := fl.Int("top", 10, "top-degree nodes to list")
	fl.Parse(args)
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	m := eng.Stats()
	fmt.Printf("nodes: %d\nedges: %d\ndensity: %.2f edges/node\n", m.Nodes, m.Edges, m.Density)
	fmt.Println("\ntop-degree nodes (Figure 7 hubs):")
	for _, h := range graph.TopDegreeNodes(eng.Source(), *top) {
		fmt.Printf("  %-14s %-24s degree %d\n", h.Type, h.Name, h.Degree)
	}
	return nil
}

func cmdVerify(args []string) error {
	fl := flag.NewFlagSet("verify", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	quiet := fl.Bool("q", false, "print problems only")
	flipByte := fl.Int64("flip-byte", -1, "chaos helper: XOR 0xFF into the byte at this offset of -flip-file, then exit (corruption drills; >= file size clamps to the middle)")
	flipFile := fl.String("flip-file", store.NodeFile, "store file in -db (base name, e.g. "+store.RelFile+") whose byte -flip-byte flips")
	fl.Parse(args)
	if *db == "" {
		return fmt.Errorf("missing -db")
	}
	if *flipByte >= 0 {
		if !store.IsStoreFile(*flipFile) {
			return fmt.Errorf("verify: -flip-file %q is not a store file name", *flipFile)
		}
		return flipByteAt(filepath.Join(*db, *flipFile), *flipByte)
	}
	rep, err := store.Verify(*db)
	if err != nil {
		return err
	}
	if !*quiet {
		fmt.Printf("store %s: format v%d, %d nodes, %d edges\n", rep.Dir, rep.FormatVersion, rep.Nodes, rep.Edges)
		for _, fc := range rep.Files {
			status := "ok"
			if !fc.OK {
				status = "CORRUPT"
			}
			fmt.Printf("  %-34s %10d bytes  %5d chunks  %s\n", fc.Name, fc.Bytes, fc.Chunks, status)
		}
	}
	// Audit the incremental-update history alongside the store files.
	journalProblems := delta.AuditJournal(*db)
	if !*quiet {
		if recs, err := delta.LoadJournal(*db); err == nil && len(recs) > 0 {
			last := recs[len(recs)-1]
			fmt.Printf("  update journal: %d record(s), epoch %d, last at %s\n",
				len(recs), last.Epoch, last.Time)
		}
	}
	for _, p := range rep.Problems {
		fmt.Fprintf(os.Stderr, "problem: %v\n", p)
	}
	for _, p := range journalProblems {
		fmt.Fprintf(os.Stderr, "problem: %v\n", p)
	}
	if n := len(rep.Problems) + len(journalProblems); !rep.OK() || len(journalProblems) > 0 {
		return fmt.Errorf("%d problem(s) found in %s", n, *db)
	}
	if !*quiet {
		fmt.Println("store is clean")
	}
	return nil
}

// flipByteAt XORs 0xFF into one byte of path — the deterministic
// corruption injection the chaos CI job uses (replacing ad-hoc
// scripting). An offset past the end clamps to the file's middle so
// callers need not know file sizes.
func flipByteAt(path string, off int64) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if len(b) == 0 {
		return fmt.Errorf("%s is empty; nothing to corrupt", path)
	}
	if off >= int64(len(b)) {
		off = int64(len(b)) / 2
	}
	b[off] ^= 0xFF
	if err := os.WriteFile(path, b, 0o644); err != nil {
		return err
	}
	fmt.Printf("flipped byte %d of %s\n", off, path)
	return nil
}

func cmdServe(args []string) error {
	fl := flag.NewFlagSet("serve", flag.ExitOnError)
	sf := addSourceFlags(fl)
	db := fl.String("db", "frappe.db", "store directory")
	addr := fl.String("addr", "127.0.0.1:7474", "listen address")
	queryTimeout := fl.Duration("query-timeout", 30*time.Second, "per-query deadline")
	maxConcurrent := fl.Int("max-concurrent", server.DefaultMaxConcurrent, "max in-flight requests before shedding with 503 (<0 disables)")
	maxBodyBytes := fl.Int64("max-body-bytes", server.DefaultMaxBodyBytes, "max request body size in bytes before 413 (<0 disables)")
	maxRows := fl.Int("max-rows", 1_000_000, "per-query row budget (0 = unlimited)")
	maxSteps := fl.Int64("max-steps", 50_000_000, "per-query pattern-expansion budget (0 = unlimited)")
	drain := fl.Duration("drain-timeout", server.DefaultDrainTimeout, "max time to drain in-flight requests on shutdown")
	pprofOn := fl.Bool("pprof", false, "expose net/http/pprof under /debug/pprof/")
	slowMS := fl.Int64("slow-ms", server.DefaultSlowThreshold.Milliseconds(), "log requests slower than this many milliseconds (<0 disables)")
	qcacheMB := fl.Int("qcache-mb", 64, "query result cache budget in MB (0 disables the cache)")
	qcacheEntries := fl.Int("qcache-entries", qcache.DefaultMaxEntries, "query result cache entry cap")
	updateRetries := fl.Int("update-retries", 3, "attempts per admin update before reporting failure (1 disables retry)")
	updateRetryBackoff := fl.Duration("update-retry-backoff", 500*time.Millisecond, "initial backoff between update retries (doubles each attempt)")
	logFormat := fl.String("log-format", "text", "server log format: text or json")
	traceSample := fl.Float64("trace-sample", trace.DefaultSampleRate, "fraction of unremarkable request traces to retain in [0,1]; slow/errored/degraded traces are always kept (<0 disables tracing)")
	traceExport := fl.String("trace-export", "", "append every retained trace as JSON lines to this file (rotated)")
	fl.Parse(args)

	// Structured logging: every server log line (slow requests, panics,
	// write failures, update retries) goes to stderr in the chosen
	// format, carrying request and trace IDs. Built before engine wiring
	// so the update-retry path logs structured too.
	var logger *slog.Logger
	switch *logFormat {
	case "json":
		logger = slog.New(slog.NewJSONHandler(os.Stderr, nil))
	case "text":
		logger = slog.New(slog.NewTextHandler(os.Stderr, nil))
	default:
		return fmt.Errorf("serve: -log-format must be \"text\" or \"json\", got %q", *logFormat)
	}

	limits := query.Limits{MaxRows: *maxRows, MaxSteps: *maxSteps}

	var eng *core.Engine
	var srv *server.Server
	if sf.given() {
		// Live mode: keep the extraction session in memory and expose
		// POST /api/admin/update. The graph is served in-memory (assembled
		// from the session's artifacts) so store files can be rewritten by
		// an update while pinned snapshots keep serving.
		build, opts, err := sf.resolve()
		if err != nil {
			return fmt.Errorf("serve %w", err)
		}
		sess, err := delta.Resume(*db, opts)
		if err != nil {
			// No incremental state yet: index from scratch now.
			fmt.Printf("frappe: no incremental state in %s; extracting %s\n", *db, sourceName(sf))
			var res *extract.Result
			sess, res, err = delta.NewSession(build, opts)
			if err != nil {
				return err
			}
			printDiagnostics(res.Errors)
			// Same crash-consistent bundle as `frappe index`: store, state
			// and a restarted journal land atomically or not at all.
			if err := delta.PersistIndex(*db, sess, res.Graph, delta.Record{
				Epoch:            sess.Manifest().Epoch,
				Time:             time.Now().UTC().Format(time.RFC3339),
				FilesAdded:       len(sess.Manifest().Files),
				UnitsReextracted: len(build.Units),
				NodesAdded:       int(res.Graph.NodeCount()),
				EdgesAdded:       int(res.Graph.EdgeCount()),
				NodeCount:        res.Graph.NodeCount(),
				EdgeCount:        res.Graph.EdgeCount(),
			}); err != nil {
				return err
			}
		}
		res := sess.Assemble(build)
		eng = core.FromGraph(res.Graph)
		eng.SetEpoch(sess.Manifest().Epoch, lastJournalSummary(*db))
		eng.QueryLimits = limits
		srv = server.New(eng)
		srv.Update = func(ctx context.Context) (server.UpdateResult, error) {
			var result server.UpdateResult
			_, err := eng.UpdateWith(func(old graph.Source) (*graph.Graph, int64, *core.UpdateSummary, error) {
				start := time.Now()
				b, _, err := sf.resolve()
				if err != nil {
					return nil, 0, nil, err
				}
				up, err := sess.Update(b, old)
				if err != nil {
					return nil, 0, nil, err
				}
				if up.NoOp {
					result = server.UpdateResult{Applied: false, Epoch: up.Epoch}
					return nil, 0, nil, nil
				}
				rec, err := persistUpdate(*db, sess, up, time.Since(start))
				if err != nil {
					return nil, 0, nil, err
				}
				sum := summaryOf(rec)
				result = server.UpdateResult{Applied: true, Epoch: up.Epoch, Summary: sum}
				return up.Result.Graph, up.Epoch, sum, nil
			})
			return result, err
		}
		// Transient update failures (a full disk, a flaky filesystem) are
		// retried with backoff; planning is idempotent and a failed persist
		// never publishes, so a retry replans from the same inputs.
		if *updateRetries > 1 {
			srv.Update = server.WithRetry(srv.Update, *updateRetries, *updateRetryBackoff,
				func(format string, args ...any) { logger.Warn(fmt.Sprintf(format, args...)) })
		}
		// Catch up with any tree changes (or lost cache entries) since the
		// last index before accepting traffic.
		if catchUp, err := srv.Update(context.Background()); err != nil {
			return fmt.Errorf("serve: initial catch-up update: %w", err)
		} else if catchUp.Applied {
			fmt.Printf("frappe: caught up to epoch %d (%d units re-extracted)\n",
				catchUp.Epoch, catchUp.Summary.UnitsReextracted)
		}
	} else {
		var err error
		eng, err = openDB(*db)
		if err != nil {
			return err
		}
		eng.QueryLimits = limits
		// A static store may still carry update history; surface it.
		if m, err := delta.LoadManifest(*db); err == nil {
			eng.SetEpoch(m.Epoch, lastJournalSummary(*db))
		}
		srv = server.New(eng)
	}
	defer eng.Close()
	// The query cache is installed before the listener opens: repeated
	// queries skip parsing and execution, and concurrent identical
	// queries coalesce into one executor slot. `frappe query` (one-shot
	// CLI) never installs a cache.
	if *qcacheMB > 0 {
		eng.SetQueryCache(qcache.New(qcache.Config{
			MaxBytes:   int64(*qcacheMB) << 20,
			MaxEntries: *qcacheEntries,
		}))
	}
	srv.QueryTimeout = *queryTimeout
	srv.MaxConcurrent = *maxConcurrent
	srv.MaxBodyBytes = *maxBodyBytes
	if *slowMS < 0 {
		srv.SlowThreshold = -1
	} else if *slowMS > 0 {
		srv.SlowThreshold = time.Duration(*slowMS) * time.Millisecond
	}
	if *pprofOn {
		srv.EnablePprof()
		fmt.Printf("frappe: pprof enabled at http://%s/debug/pprof/\n", *addr)
	}

	srv.Logger = logger
	obs.RegisterRuntime(version)

	// Request tracing: a lock-striped ring of recent traces with
	// tail-based sampling. Slow requests use the same threshold the slow
	// log uses, so every "slow request" log line has a retained trace.
	if *traceSample >= 0 {
		if *traceSample > 1 {
			return fmt.Errorf("serve: -trace-sample must be in [0,1], got %v", *traceSample)
		}
		cfg := trace.Config{
			Capacity:      256,
			SampleRate:    *traceSample,
			SlowThreshold: server.DefaultSlowThreshold,
		}
		if srv.SlowThreshold > 0 {
			cfg.SlowThreshold = srv.SlowThreshold
		}
		if *traceExport != "" {
			exp, err := trace.NewExporter(*traceExport, trace.DefaultExportMaxBytes)
			if err != nil {
				return fmt.Errorf("serve: -trace-export: %w", err)
			}
			defer exp.Close()
			cfg.Export = exp
		}
		srv.Tracer = trace.New(cfg)
	}

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		return err
	}
	fmt.Printf("frappe: serving %s on http://%s (SIGTERM drains for up to %v)\n", *db, ln.Addr(), *drain)
	// The startup line also goes to the structured sink, so log
	// pipelines see the process come up in the same stream as its
	// requests.
	srv.Logger.Info("serving", "db", *db, "addr", ln.Addr().String(),
		"version", version, "epoch", eng.Snapshot().Epoch(),
		"tracing", srv.Tracer != nil, "logFormat", *logFormat)
	if err := server.Serve(ctx, ln, srv, *drain); err != nil {
		return err
	}
	fmt.Println("frappe: drained, bye")
	return nil
}

func cmdMap(args []string) error {
	fl := flag.NewFlagSet("map", flag.ExitOnError)
	db := fl.String("db", "frappe.db", "store directory")
	out := fl.String("out", "codemap.svg", "output SVG path")
	highlight := fl.String("highlight", "", "function whose backward slice to highlight")
	width := fl.Int("width", 1280, "map width")
	height := fl.Int("height", 900, "map height")
	fl.Parse(args)
	eng, err := openDB(*db)
	if err != nil {
		return err
	}
	defer eng.Close()
	m := codemap.Build(eng.Source())
	opts := codemap.RenderOptions{Width: float64(*width), Height: float64(*height), Title: "Frappé code map"}
	if *highlight != "" {
		id, err := eng.MustLookupOne(*highlight, model.NodeFunction)
		if err != nil {
			return err
		}
		opts.Highlight = traversal.TransitiveClosure(eng.Source(), id, traversal.Options{
			Direction: traversal.Out,
			Types:     traversal.Types(model.EdgeCalls),
		})
		opts.Highlight = append(opts.Highlight, id)
		opts.Title = fmt.Sprintf("Backward slice of %s", *highlight)
	}
	svg := m.SVG(opts)
	if err := os.WriteFile(*out, []byte(svg), 0o644); err != nil {
		return err
	}
	fmt.Printf("wrote %s (%d bytes)\n", *out, len(svg))
	return nil
}
