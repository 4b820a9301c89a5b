package delta

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"sort"
	"strings"
	"testing"

	"frappe/internal/extract"
	"frappe/internal/graph"
	"frappe/internal/kernelgen"
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
