package delta

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"testing"

	"frappe/internal/atomicfile"
	"frappe/internal/kernelgen"
)

// cacheFiles stats every tucache entry under dir by name.
func cacheFiles(t *testing.T, dir string) map[string]os.FileInfo {
	t.Helper()
	entries, err := os.ReadDir(filepath.Join(dir, CacheDir))
	if err != nil {
		t.Fatal(err)
	}
	out := map[string]os.FileInfo{}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".gob" {
			continue
		}
		fi, err := os.Stat(filepath.Join(dir, CacheDir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = fi
	}
	return out
}

// sameArtifacts requires the session resumed from dir to hold exactly
// live's artifacts, compared as their stored tucache entries.
func sameArtifacts(t *testing.T, live *Session, dir string) {
	t.Helper()
	resumed, err := Resume(dir, live.opts)
	if err != nil {
		t.Fatal(err)
	}
	if resumed.NeedsRepair() {
		t.Fatalf("resume from %s lost entries: %v", dir, resumed.forceDirty)
	}
	if len(resumed.arts) != len(live.arts) {
		t.Fatalf("resumed %d artifacts, live session has %d", len(resumed.arts), len(live.arts))
	}
	for src, a := range live.arts {
		if _, ok := resumed.arts[src]; !ok {
			t.Fatalf("resume lost %s", src)
		}
		want, got := live.entries[src], resumed.entries[src]
		if len(want) == 0 || a.PP.Tokens != nil {
			t.Fatalf("live session keeps no entry, or keeps the token stream, for %s", src)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("resumed artifact of %s differs from the live one", src)
		}
	}
}

// TestStageOnlyDirtyEntries: an update rewrites only the tucache entries
// of the units it re-extracted, leaves every other entry's file alone,
// and still resumes to exactly the live session's artifacts.
func TestStageOnlyDirtyEntries(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	sess, res, err := NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := PersistIndex(dir, sess, res.Graph, Record{Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	before := cacheFiles(t, dir)
	if len(before) != len(w.Build.Units) {
		t.Fatalf("index staged %d entries for %d units", len(before), len(w.Build.Units))
	}
	srcs := sortedSources(w.Build)
	edited := map[string]bool{}
	for i := 0; i < 3; i++ {
		src := srcs[i*2%len(srcs)]
		edited[cacheName(src)] = true
		w.FS[src] += fmt.Sprintf("\nint staged_%d(void) { return %d; }\n", i, i)
		up, err := sess.Update(w.Build, res.Graph)
		if err != nil {
			t.Fatal(err)
		}
		if err := PersistUpdate(dir, sess, up.Result.Graph, Record{Epoch: up.Epoch}); err != nil {
			t.Fatal(err)
		}
		res = up.Result
		if len(sess.dirty) != 0 {
			t.Fatalf("dirty set survived a published update: %v", sess.dirty)
		}
	}
	after := cacheFiles(t, dir)
	for name, fi := range before {
		switch rewritten := !os.SameFile(fi, after[name]); {
		case edited[name] && !rewritten:
			t.Errorf("entry %s of an edited unit was not rewritten", name)
		case !edited[name] && rewritten:
			t.Errorf("entry %s of a clean unit was rewritten", name)
		}
	}
	sameArtifacts(t, sess, dir)
}

// TestStageAbortKeepsDirty: a commit that is staged and then aborted
// leaves the dirty set in place, so the next persist still writes the
// edited unit's entry.
func TestStageAbortKeepsDirty(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	sess, res, err := NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := PersistIndex(dir, sess, res.Graph, Record{Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	src := sortedSources(w.Build)[0]
	w.FS[src] += "\nint aborted_added(void) { return 1; }\n"
	up, err := sess.Update(w.Build, res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	c, err := atomicfile.NewCommit(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := sess.StageState(c); err != nil {
		t.Fatal(err)
	}
	c.Abort()
	if !sess.dirty[src] {
		t.Fatalf("aborted commit cleared the dirty set: %v", sess.dirty)
	}

	// A persist whose publish fails (an injected crash before the commit
	// point) keeps it too.
	atomicfile.SetCrashPlan(&atomicfile.CrashPlan{KillAt: 1})
	err = PersistUpdate(dir, sess, up.Result.Graph, Record{Epoch: up.Epoch})
	atomicfile.ClearCrashPlan()
	if err == nil {
		t.Fatal("injected crash did not fail the persist")
	}
	if _, err := atomicfile.Recover(dir); err != nil {
		t.Fatal(err)
	}
	if !sess.dirty[src] {
		t.Fatalf("failed persist cleared the dirty set: %v", sess.dirty)
	}
	if err := PersistUpdate(dir, sess, up.Result.Graph, Record{Epoch: up.Epoch}); err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, sess, dir)
}

// TestStageNewDirWritesAll: persisting to a directory the session has
// not published to stages every entry, not just the dirty ones.
func TestStageNewDirWritesAll(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	sess, res, err := NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	first := filepath.Join(t.TempDir(), "a")
	if err := PersistIndex(first, sess, res.Graph, Record{Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	src := sortedSources(w.Build)[0]
	w.FS[src] += "\nint moved_added(void) { return 1; }\n"
	up, err := sess.Update(w.Build, res.Graph)
	if err != nil {
		t.Fatal(err)
	}
	if len(sess.dirty) != 1 {
		t.Fatalf("one edit left %d dirty units", len(sess.dirty))
	}
	second := filepath.Join(t.TempDir(), "b")
	if err := PersistUpdate(second, sess, up.Result.Graph, Record{Epoch: up.Epoch}); err != nil {
		t.Fatal(err)
	}
	var names, want []string
	for name := range cacheFiles(t, second) {
		names = append(names, name)
	}
	for _, u := range w.Build.Units {
		want = append(want, cacheName(u.Source))
	}
	sort.Strings(names)
	sort.Strings(want)
	if fmt.Sprint(names) != fmt.Sprint(want) {
		t.Fatalf("new directory got entries %v, want %v", names, want)
	}
	sameArtifacts(t, sess, second)

	// Back in the first directory, which missed this update, the session
	// has not published since the move, so everything is staged again.
	if err := PersistUpdate(first, sess, up.Result.Graph, Record{Epoch: up.Epoch}); err != nil {
		t.Fatal(err)
	}
	sameArtifacts(t, sess, first)
}
