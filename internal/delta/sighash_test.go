package delta

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strings"
	"testing"

	"frappe/internal/extract"
	"frappe/internal/graph"
	"frappe/internal/kernelgen"
	"frappe/internal/model"
	"frappe/internal/store"
)

// sortedSources lists the build's unit sources in a stable order.
func sortedSources(b extract.Build) []string {
	var out []string
	for _, u := range b.Units {
		out = append(out, u.Source)
	}
	sort.Strings(out)
	return out
}

// withoutUnit returns b minus the unit compiled from src and its object.
func withoutUnit(b extract.Build, src string) extract.Build {
	var out extract.Build
	var obj string
	for _, u := range b.Units {
		if u.Source == src {
			obj = u.Object
			continue
		}
		out.Units = append(out.Units, u)
	}
	for _, m := range b.Modules {
		m.Objects = append([]string(nil), m.Objects...)
		for i, o := range m.Objects {
			if o == obj {
				m.Objects = append(m.Objects[:i], m.Objects[i+1:]...)
				break
			}
		}
		out.Modules = append(out.Modules, m)
	}
	return out
}

// editKinds are the edit shapes the hashed diff is checked against.
var editKinds = []string{"append", "shift", "truncate", "remove", "add"}

// applyEdit makes one seeded edit of the given kind to w's tree and
// build.
func applyEdit(t *testing.T, w *kernelgen.Workload, rng *rand.Rand, kind string, step int) {
	t.Helper()
	srcs := sortedSources(w.Build)
	src := srcs[rng.Intn(len(srcs))]
	switch kind {
	case "append":
		w.FS[src] += fmt.Sprintf("\nint hashed_added_%d(int x) { return x * %d; }\n", step, step)
	case "shift":
		// Every entity below the new lines moves, so its location
		// changes: node and edge churn without any new code.
		w.FS[src] = strings.Repeat("\n", 1+rng.Intn(3)) + w.FS[src]
	case "truncate":
		body := w.FS[src]
		if i := strings.LastIndex(body[:len(body)/2], "\n}\n"); i > 0 {
			w.FS[src] = body[:i+3]
		} else {
			w.FS[src] = ""
		}
	case "remove":
		if len(srcs) < 3 {
			t.Fatal("workload too small to remove a unit")
		}
		delete(w.FS, src)
		w.Build = withoutUnit(w.Build, src)
	case "add":
		name := fmt.Sprintf("drivers/hashed/added_%d.c", step)
		w.FS[name] = fmt.Sprintf("int hashed_unit_%d(int x) { return x + 1; }\n", step)
		obj := strings.TrimSuffix(name, ".c") + ".o"
		w.Build.Units = append(w.Build.Units, extract.CompileUnit{Source: name, Object: obj})
		m := w.Build.Modules[0]
		m.Objects = append(append([]string(nil), m.Objects...), obj)
		w.Build.Modules = append([]extract.Module{m}, w.Build.Modules[1:]...)
	default:
		t.Fatalf("unknown edit kind %q", kind)
	}
}

// TestHashedDiffMatchesCompute: over seeded edit sequences the update
// path's hashed diff reports exactly Compute's counts, both when the
// old graph is the session's own last graph (hashes reused) and when it
// is a different graph (hashed afresh).
func TestHashedDiffMatchesCompute(t *testing.T) {
	for seed := int64(1); seed <= 3; seed++ {
		t.Run(fmt.Sprintf("seed%d", seed), func(t *testing.T) {
			w := kernelgen.Generate(kernelgen.Config{Seed: seed, Subsystems: 4, FilesPerSubsystem: 3, FuncsPerFile: 4})
			sess, res, err := NewSession(w.Build, w.ExtractOptions())
			if err != nil {
				t.Fatal(err)
			}
			live := res.Graph
			rng := rand.New(rand.NewSource(seed))
			for step := 0; step < 2*len(editKinds); step++ {
				kind := editKinds[step%len(editKinds)]
				old := graph.Source(live)
				if step%3 == 2 {
					// A graph the session did not assemble: the same
					// state rebuilt from scratch, with its own file IDs.
					re, err := extract.Run(w.Build, w.ExtractOptions())
					if err != nil {
						t.Fatal(err)
					}
					old = re.Graph
				}
				applyEdit(t, w, rng, kind, step)
				up, err := sess.Update(w.Build, old)
				if err != nil {
					t.Fatal(err)
				}
				if up.NoOp {
					t.Fatalf("step %d (%s): no-op", step, kind)
				}
				if want := Compute(old, up.Result.Graph); up.Diff != want {
					t.Fatalf("step %d (%s): hashed diff %+v, Compute %+v", step, kind, up.Diff, want)
				}
				if kind == "shift" && up.Diff.Zero() {
					t.Fatalf("step %d: a line shift reported no change", step)
				}
				live = up.Result.Graph
			}
		})
	}
}

// TestHashedDiffAfterResume: the first update of a resumed session has
// no hashes of the old graph, which is a disk store here, so it hashes
// the store's graph; the next update reuses the hashes of its own graph.
func TestHashedDiffAfterResume(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Config{Seed: 7, Subsystems: 4, FilesPerSubsystem: 3, FuncsPerFile: 4})
	sess, res, err := NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := PersistIndex(dir, sess, res.Graph, Record{Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	resumed, err := Resume(dir, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(7))
	var old graph.Source = db
	for step, kind := range []string{"shift", "append", "remove"} {
		applyEdit(t, w, rng, kind, step)
		up, err := resumed.Update(w.Build, old)
		if err != nil {
			t.Fatal(err)
		}
		if want := Compute(old, up.Result.Graph); up.Diff != want || up.Diff.Zero() {
			t.Fatalf("step %d (%s): hashed diff %+v, Compute %+v", step, kind, up.Diff, want)
		}
		old = up.Result.Graph
	}
}

// TestSortSigHashesMatchesSortFunc: the radix sort orders lists exactly
// as slices.SortFunc does, across the short-list cutoff, with repeated
// hashes, with runs of equal hi and different lo, and with hi values
// whose high bytes are all equal (passes the radix sort skips).
func TestSortSigHashesMatchesSortFunc(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	gens := map[string]func() sigHash{
		"uniform":   func() sigHash { return sigHash{rng.Uint64(), rng.Uint64()} },
		"dupes":     func() sigHash { v := uint64(rng.Intn(50)); return sigHash{v * 0x9e3779b97f4a7c15, v} },
		"equal-hi":  func() sigHash { return sigHash{uint64(rng.Intn(20)) << 40, rng.Uint64()} },
		"narrow-hi": func() sigHash { return sigHash{uint64(rng.Intn(1000)), uint64(rng.Intn(3))} },
	}
	for name, gen := range gens {
		for _, n := range []int{0, 1, 2, radixMin - 1, radixMin, radixMin + 1, 5000} {
			xs := make([]sigHash, n)
			for i := range xs {
				xs[i] = gen()
			}
			want := slices.Clone(xs)
			slices.SortFunc(want, cmpSigHash)
			sortSigHashes(xs)
			if !slices.Equal(xs, want) {
				t.Errorf("%s/%d: radix order differs from slices.SortFunc", name, n)
			}
		}
	}
}

// genericTwin rebuilds g with every edge's positional properties held
// as Int properties instead of in a graph.Loc.
func genericTwin(g *graph.Graph) *graph.Graph {
	twin := graph.New()
	for id := graph.NodeID(0); id < graph.NodeID(g.NodeCount()); id++ {
		twin.AddNode(g.NodeType(id), g.NodeProps(id).Clone())
	}
	for id := graph.EdgeID(0); id < graph.EdgeID(g.EdgeCount()); id++ {
		from, to, et := g.EdgeEnds(id)
		twin.AddEdge(from, to, et, g.EdgeProps(id))
	}
	return twin
}

// sameSource requires a and b to answer every graph.Source method alike.
func sameSource(t *testing.T, a, b graph.Source) {
	t.Helper()
	if a.NodeCount() != b.NodeCount() || a.EdgeCount() != b.EdgeCount() {
		t.Fatalf("counts %d/%d vs %d/%d", a.NodeCount(), a.EdgeCount(), b.NodeCount(), b.EdgeCount())
	}
	sameProp := func(what string, v1 graph.Value, ok1 bool, v2 graph.Value, ok2 bool) {
		if ok1 != ok2 || v1.Kind() != v2.Kind() || !v1.Equal(v2) {
			t.Fatalf("%s: %#v, %v vs %#v, %v", what, v1, ok1, v2, ok2)
		}
	}
	for id := graph.NodeID(0); id < graph.NodeID(a.NodeCount()); id++ {
		if a.NodeType(id) != b.NodeType(id) {
			t.Fatalf("node %d: type %s vs %s", id, a.NodeType(id), b.NodeType(id))
		}
		for _, l := range []string{"symbol", "container", string(a.NodeType(id))} {
			if a.NodeHasLabel(id, l) != b.NodeHasLabel(id, l) {
				t.Fatalf("node %d: label %s differs", id, l)
			}
		}
		if !slices.Equal(a.NodeProps(id), b.NodeProps(id)) {
			t.Fatalf("node %d: props %v vs %v", id, a.NodeProps(id), b.NodeProps(id))
		}
		for _, k := range []string{"TYPE", "short_name", "FILE_ID", "missing"} {
			v1, ok1 := a.NodeProp(id, k)
			v2, ok2 := b.NodeProp(id, k)
			sameProp(fmt.Sprintf("node %d %s", id, k), v1, ok1, v2, ok2)
		}
		if !slices.Equal(a.Out(id), b.Out(id)) || !slices.Equal(a.In(id), b.In(id)) {
			t.Fatalf("node %d: adjacency differs", id)
		}
	}
	keys := []string{"TYPE", "type", model.PropIndex, model.PropLinkOrder, "missing"}
	for _, k := range graph.LocKeys {
		keys = append(keys, k, strings.ToLower(k))
	}
	for id := graph.EdgeID(0); id < graph.EdgeID(a.EdgeCount()); id++ {
		f1, t1, e1 := a.EdgeEnds(id)
		f2, t2, e2 := b.EdgeEnds(id)
		if f1 != f2 || t1 != t2 || e1 != e2 {
			t.Fatalf("edge %d: ends differ", id)
		}
		if !slices.Equal(a.EdgeProps(id), b.EdgeProps(id)) {
			t.Fatalf("edge %d: props %v vs %v", id, a.EdgeProps(id), b.EdgeProps(id))
		}
		for _, k := range keys {
			v1, ok1 := a.EdgeProp(id, k)
			v2, ok2 := b.EdgeProp(id, k)
			sameProp(fmt.Sprintf("edge %d %s", id, k), v1, ok1, v2, ok2)
		}
	}
	for _, q := range []string{"short_name:*", "type:function", "name:*.c"} {
		r1, err1 := a.Lookup(q)
		r2, err2 := b.Lookup(q)
		if (err1 == nil) != (err2 == nil) || !slices.Equal(r1, r2) {
			t.Fatalf("Lookup(%q) differs", q)
		}
	}
}

// storeFiles reads every store file Write puts in dir.
func storeFiles(t *testing.T, g *graph.Graph, dir string) map[string][]byte {
	t.Helper()
	if err := store.Write(dir, g); err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := map[string][]byte{}
	for _, e := range entries {
		if store.IsStoreFile(e.Name()) {
			b, err := os.ReadFile(filepath.Join(dir, e.Name()))
			if err != nil {
				t.Fatal(err)
			}
			out[e.Name()] = b
		}
	}
	return out
}

// TestLocGraphMatchesGenericTwin: the extractor's graph, whose
// positional properties live in graph.Locs, and its twin holding them
// as Int properties cannot be told apart through graph.Source, Compute,
// the signature hashes, or the store bytes.
func TestLocGraphMatchesGenericTwin(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Config{Seed: 5, Subsystems: 4, FilesPerSubsystem: 3, FuncsPerFile: 4})
	res, err := extract.Run(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	g := res.Graph
	locs := 0
	for id := graph.EdgeID(0); id < graph.EdgeID(g.EdgeCount()); id++ {
		if l, _ := g.EdgeLoc(id); !l.Empty() {
			locs++
		}
	}
	if locs == 0 {
		t.Fatal("extracted graph holds no Loc edges")
	}
	twin := genericTwin(g)
	sameSource(t, g, twin)
	if d := Compute(g, twin); !d.Zero() {
		t.Fatalf("Compute(loc, generic) = %+v", d)
	}
	h1, h2 := hashSignatures(g), hashSignatures(twin)
	if !slices.Equal(h1.nodes, h2.nodes) || !slices.Equal(h1.edges, h2.edges) {
		t.Fatal("signature hashes differ between the Loc graph and its generic twin")
	}
	dir := filepath.Join(t.TempDir(), "loc")
	b1 := storeFiles(t, g, dir)
	b2 := storeFiles(t, twin, filepath.Join(t.TempDir(), "generic"))
	if len(b1) != len(b2) {
		t.Fatalf("%d store files vs %d", len(b1), len(b2))
	}
	for name, b := range b1 {
		if !bytes.Equal(b, b2[name]) {
			t.Errorf("%s differs between the Loc graph and its generic twin", name)
		}
	}
	// The store read back holds the same properties a third way.
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	sameSource(t, g, db)
	h3 := hashSignatures(db)
	if !slices.Equal(h1.nodes, h3.nodes) || !slices.Equal(h1.edges, h3.edges) {
		t.Fatal("signature hashes differ between the Loc graph and its store")
	}
}

// TestNoOpEditZeroDiffAcrossRepresentations: an edit that changes a
// unit's bytes but not its graph re-extracts the unit and reports a
// zero diff, whether old is a disk store, an in-memory graph the
// session did not assemble, or the session's own last graph.
func TestNoOpEditZeroDiffAcrossRepresentations(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Config{Seed: 9, Subsystems: 4, FilesPerSubsystem: 3, FuncsPerFile: 4})
	sess, res, err := NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := PersistIndex(dir, sess, res.Graph, Record{Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	db, err := store.Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer db.Close()
	rebuilt, err := extract.Run(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	src := sortedSources(w.Build)[0]
	for step, old := range []graph.Source{db, rebuilt.Graph, nil} {
		if old == nil {
			old = sess.last
		}
		w.FS[src] += fmt.Sprintf("\n/* no-op edit %d */\n", step)
		up, err := sess.Update(w.Build, old)
		if err != nil {
			t.Fatal(err)
		}
		if up.NoOp || up.Reextracted != 1 {
			t.Fatalf("step %d: NoOp %v, re-extracted %d; want one unit re-extracted", step, up.NoOp, up.Reextracted)
		}
		if !up.Diff.Zero() {
			t.Fatalf("step %d (old %T): diff %+v, want zero", step, old, up.Diff)
		}
	}
}
