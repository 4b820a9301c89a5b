package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"frappe/internal/core"
	"frappe/internal/cpp"
	"frappe/internal/delta"
	"frappe/internal/extract"
	"frappe/internal/model"
)

func writeTree(t *testing.T, files map[string]string) string {
	t.Helper()
	root := t.TempDir()
	for p, src := range files {
		full := filepath.Join(root, filepath.FromSlash(p))
		if err := os.MkdirAll(filepath.Dir(full), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(full, []byte(src), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

func TestBuildFromTreeGlob(t *testing.T) {
	root := writeTree(t, map[string]string{
		"src/a.c":  "int a(void) { return 0; }\n",
		"src/b.c":  "int b(void) { return 1; }\n",
		"inc/x.h":  "int x;\n",
		"README.m": "not C\n",
	})
	build, err := buildFromTree(root, "")
	if err != nil {
		t.Fatal(err)
	}
	if len(build.Units) != 2 {
		t.Fatalf("units = %+v", build.Units)
	}
	if len(build.Modules) != 1 || len(build.Modules[0].Objects) != 2 {
		t.Fatalf("modules = %+v", build.Modules)
	}
	for _, u := range build.Units {
		if filepath.IsAbs(u.Source) {
			t.Fatalf("unit source not relative: %q", u.Source)
		}
	}
}

func TestBuildFromTreeEmpty(t *testing.T) {
	if _, err := buildFromTree(t.TempDir(), ""); err == nil {
		t.Fatal("empty tree should fail")
	}
}

func TestBuildFromCCLog(t *testing.T) {
	root := t.TempDir()
	log := filepath.Join(root, "build.json")
	content := `{"kind":"compile","source":"foo.c","object":"foo.o"}
{"kind":"compile","source":"main.c","object":"main.o"}
{"kind":"link","output":"prog","objects":["main.o","foo.o"],"libs":["libm"]}
`
	if err := os.WriteFile(log, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	build, err := buildFromTree(root, log)
	if err != nil {
		t.Fatal(err)
	}
	if len(build.Units) != 2 || len(build.Modules) != 1 {
		t.Fatalf("build = %+v", build)
	}
	if build.Modules[0].Name != "prog" || build.Modules[0].Libs[0] != "libm" {
		t.Fatalf("module = %+v", build.Modules[0])
	}
}

func TestBuildFromCCLogMalformed(t *testing.T) {
	root := t.TempDir()
	log := filepath.Join(root, "bad.json")
	if err := os.WriteFile(log, []byte("{not json"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := buildFromTree(root, log); err == nil {
		t.Fatal("malformed log should fail")
	}
}

// TestIndexAndQueryRealTree drives the index command machinery against a
// real on-disk tree through the same paths the CLI uses.
func TestIndexAndQueryRealTree(t *testing.T) {
	root := writeTree(t, map[string]string{
		"util.h": "#ifndef UTIL_H\n#define UTIL_H\nint add(int, int);\n#endif\n",
		"util.c": "#include \"util.h\"\nint add(int a, int b) { return a + b; }\n",
		"app.c":  "#include \"util.h\"\nint run(void) { return add(1, 2); }\n",
	})
	if err := cmdIndex([]string{"-src", root, "-db", filepath.Join(root, "db")}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-db", filepath.Join(root, "db"),
		`MATCH (f:function) -[:calls]-> (g:function) RETURN f.short_name, g.short_name`}); err != nil {
		t.Fatal(err)
	}
	if err := cmdQuery([]string{"-db", filepath.Join(root, "db"), "-profile",
		`MATCH (f:function) -[:calls]-> (g:function) RETURN f.short_name, g.short_name`}); err != nil {
		t.Fatal(err)
	}
	if err := cmdStats([]string{"-db", filepath.Join(root, "db")}); err != nil {
		t.Fatal(err)
	}
	out := filepath.Join(root, "map.svg")
	if err := cmdMap([]string{"-db", filepath.Join(root, "db"), "-out", out}); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(out); err != nil || st.Size() == 0 {
		t.Fatalf("map.svg: %v", err)
	}
}

// TestVerifyCommand runs the fsck subcommand against a freshly indexed
// store (clean) and again after seeding corruption (must fail).
func TestVerifyCommand(t *testing.T) {
	root := writeTree(t, map[string]string{
		"util.c": "int add(int a, int b) { return a + b; }\n",
		"app.c":  "int add(int, int);\nint run(void) { return add(1, 2); }\n",
	})
	db := filepath.Join(root, "db")
	if err := cmdIndex([]string{"-src", root, "-db", db}); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-db", db}); err != nil {
		t.Fatalf("clean store failed verify: %v", err)
	}

	// -flip-file names a store file, never a path out of the store.
	outside := filepath.Join(root, "x")
	if err := os.WriteFile(outside, []byte("untouched"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-db", db, "-flip-byte", "0", "-flip-file", "../x"}); err == nil {
		t.Fatal("-flip-file ../x was accepted")
	}
	if b, err := os.ReadFile(outside); err != nil || string(b) != "untouched" {
		t.Fatalf("file outside the store changed: %q, %v", b, err)
	}
	if err := cmdVerify([]string{"-db", db, "-q"}); err != nil {
		t.Fatalf("rejected -flip-file changed the store: %v", err)
	}

	path := filepath.Join(db, "neostore.nodestore.db")
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	raw[len(raw)/2] ^= 0x08
	if err := os.WriteFile(path, raw, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdVerify([]string{"-db", db, "-q"}); err == nil {
		t.Fatal("verify passed a corrupted store")
	}
}

// TestUpdateCommand drives the full incremental-update loop through the
// CLI: index a tree, run a no-op update, mutate and delete files, update
// again, and require the on-disk store to match a from-scratch reindex
// while the journal audits clean.
func TestUpdateCommand(t *testing.T) {
	root := writeTree(t, map[string]string{
		"util.h": "#ifndef UTIL_H\n#define UTIL_H\nint add(int, int);\n#endif\n",
		"util.c": "#include \"util.h\"\nint add(int a, int b) { return a + b; }\n",
		"app.c":  "#include \"util.h\"\nint run(void) { return add(1, 2); }\n",
	})
	db := filepath.Join(root, "db")
	src := filepath.Join(root, "src")
	// Keep sources under a subdirectory so the db directory is not
	// scanned as part of the tree.
	if err := os.MkdirAll(src, 0o755); err != nil {
		t.Fatal(err)
	}
	for _, f := range []string{"util.h", "util.c", "app.c"} {
		if err := os.Rename(filepath.Join(root, f), filepath.Join(src, f)); err != nil {
			t.Fatal(err)
		}
	}

	if err := cmdIndex([]string{"-src", src, "-db", db}); err != nil {
		t.Fatal(err)
	}
	// Untouched tree: update is a no-op and must not disturb the store.
	if err := cmdUpdate([]string{"-src", src, "-db", db}); err != nil {
		t.Fatalf("no-op update: %v", err)
	}
	recs, err := delta.LoadJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Epoch != 0 {
		t.Fatalf("journal after no-op: %+v", recs)
	}

	// Mutate one file and add a new one; the update must pick up both.
	appC := filepath.Join(src, "app.c")
	if err := os.WriteFile(appC, []byte("#include \"util.h\"\nint run(void) { return add(3, 4); }\nint extra(void) { return add(5, 6); }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(src, "more.c"), []byte("int more(void) { return 9; }\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := cmdUpdate([]string{"-src", src, "-db", db}); err != nil {
		t.Fatalf("update after mutation: %v", err)
	}

	// The updated store matches a from-scratch index of the same tree.
	build, err := buildFromTree(src, "")
	if err != nil {
		t.Fatal(err)
	}
	scratch, err := extract.Run(build, extract.Options{FS: cpp.DirFS{Root: src}})
	if err != nil {
		t.Fatal(err)
	}
	eng, err := core.Open(db)
	if err != nil {
		t.Fatal(err)
	}
	if d := delta.Compute(scratch.Graph, eng.Source()); !d.Zero() {
		eng.Close()
		t.Fatalf("updated store differs from reindex: %+v", d)
	}
	ids, err := eng.LookupNamed("extra", model.NodeFunction)
	if err != nil || len(ids) != 1 {
		t.Fatalf("new function not in store: ids=%v err=%v", ids, err)
	}
	eng.Close()

	// Delete the definition of add: the store still verifies and the
	// journal now holds the initial record plus two updates.
	if err := os.Remove(filepath.Join(src, "util.c")); err != nil {
		t.Fatal(err)
	}
	if err := cmdUpdate([]string{"-src", src, "-db", db}); err != nil {
		t.Fatalf("update after delete: %v", err)
	}
	recs, err = delta.LoadJournal(db)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 3 || recs[2].Epoch != 2 || recs[2].FilesRemoved != 1 {
		t.Fatalf("journal after delete: %+v", recs)
	}
	if err := cmdVerify([]string{"-db", db}); err != nil {
		t.Fatalf("store failed verify after updates: %v", err)
	}
}

// TestUpdateWithoutState: updating a directory that was never indexed
// incrementally fails with guidance, not a panic or silent rebuild.
func TestUpdateWithoutState(t *testing.T) {
	root := writeTree(t, map[string]string{
		"src/a.c": "int a(void) { return 0; }\n",
	})
	err := cmdUpdate([]string{"-src", filepath.Join(root, "src"), "-db", filepath.Join(root, "nope")})
	if err == nil || !strings.Contains(err.Error(), "no incremental state") {
		t.Fatalf("update without state: %v", err)
	}
}
