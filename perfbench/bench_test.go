package main

import (
	"context"
	"net/http"
	"net/http/httptest"
	"reflect"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"frappe/internal/kernelgen"
)

func TestPercentileNearestRank(t *testing.T) {
	xs := []float64{10, 9, 8, 7, 6, 5, 4, 3, 2, 1}
	for _, c := range []struct{ p, want float64 }{
		{50, 5}, {90, 9}, {91, 10}, {100, 10}, {1, 1}, {10, 1}, {11, 2},
	} {
		if got := percentile(xs, c.p); got != c.want {
			t.Errorf("p%v = %v, want %v", c.p, got, c.want)
		}
	}
	if xs[0] != 10 {
		t.Error("percentile reordered its input")
	}
	if got := percentile([]float64{3}, 90); got != 3 {
		t.Errorf("p90 of one sample = %v", got)
	}
	if got := percentile(nil, 50); got != 0 {
		t.Errorf("p50 of nothing = %v", got)
	}
	// Ten samples beyond the p90 need at least 100 samples.
	if beyond(100, 90) != 10 || beyond(99, 90) != 9 || beyond(200, 90) != 20 {
		t.Errorf("beyond: %d %d %d", beyond(100, 90), beyond(99, 90), beyond(200, 90))
	}
}

var (
	corpusOnce sync.Once
	testW      *kernelgen.Workload
	testC      *corpus
)

// testCorpus extracts the scale-1 synthetic kernel once.
func testCorpus(t *testing.T) (*kernelgen.Workload, *corpus) {
	corpusOnce.Do(func() {
		testW = kernelgen.Generate(kernelgen.Scaled(1))
		res, err := testW.Extract()
		if err != nil {
			t.Fatal(err)
		}
		testC = newCorpus(res.Graph)
	})
	if testC == nil {
		t.Fatal("corpus extraction failed")
	}
	return testW, testC
}

func drain(t *testing.T, g generator, n int) []request {
	t.Helper()
	out := make([]request, n)
	for i := range out {
		q, err := g.next()
		if err != nil {
			t.Fatal(err)
		}
		out[i] = q
	}
	return out
}

func TestSameSeedSameStreams(t *testing.T) {
	w, c := testCorpus(t)
	pool := agentPool(c, 7)
	if !reflect.DeepEqual(pool, agentPool(c, 7)) {
		t.Fatal("agent pool differs between calls")
	}
	a, b := drain(t, newZipfStream(pool, 5), 500), drain(t, newZipfStream(pool, 5), 500)
	if !reflect.DeepEqual(a, b) {
		t.Error("zipf stream differs for the same seed")
	}
	if reflect.DeepEqual(a, drain(t, newZipfStream(pool, 6), 500)) {
		t.Error("zipf stream ignores its seed")
	}

	p, q := drain(t, newPassStream(pool, 5), 3*len(pool)), drain(t, newPassStream(pool, 5), 3*len(pool))
	if !reflect.DeepEqual(p, q) {
		t.Error("pass stream differs for the same seed")
	}
	for i := 0; i < 3; i++ {
		seen := map[string]bool{}
		for _, r := range p[i*len(pool) : (i+1)*len(pool)] {
			seen[r.Text] = true
		}
		if len(seen) != len(pool) {
			t.Errorf("pass %d sent %d of %d texts", i, len(seen), len(pool))
		}
	}

	x, y := drain(t, newConsoleStream(c, 5, 0, 3), 300), drain(t, newConsoleStream(c, 5, 0, 3), 300)
	if !reflect.DeepEqual(x, y) {
		t.Error("console stream differs for the same seed")
	}
	if reflect.DeepEqual(x, drain(t, newConsoleStream(c, 6, 0, 3), 300)) {
		t.Error("console stream ignores its seed")
	}
	seen := map[string]bool{}
	for _, q := range append(x, drain(t, newConsoleStream(c, 5, 1, 3), 300)...) {
		if seen[q.Text] {
			t.Fatalf("console text repeated within a run: %q", q.Text)
		}
		seen[q.Text] = true
	}

	e1, e2 := edits(w.Build, 5, 6), edits(w.Build, 5, 6)
	if !reflect.DeepEqual(e1, e2) {
		t.Error("edit sequence differs for the same seed")
	}
	if reflect.DeepEqual(e1, edits(w.Build, 6, 6)) {
		t.Error("edit sequence ignores its seed")
	}
}

func TestQueryKindsAreFixedByShape(t *testing.T) {
	_, c := testCorpus(t)
	want := map[string]kind{
		"callees": light, "callers": light, "search": light,
		"closure": heavy, "closure-stream": heavy, "two-hop": heavy, "revscan": heavy,
		"scan-stream": heavy, "fig3": heavy, "shortest": heavy, "writers": heavy,
	}
	for name, k := range want {
		if templates[name].kind != k {
			t.Errorf("%s is %v, want %v", name, templates[name].kind, k)
		}
	}
	if len(templates) != len(want) {
		t.Errorf("%d templates, %d classed here", len(templates), len(want))
	}
	// A block's shares are exact: 56 light, 28 heavy, whatever the seed.
	for seed := int64(1); seed <= 3; seed++ {
		n := map[kind]int{}
		for _, q := range drain(t, newConsoleStream(c, seed, 0, 3), len(consoleBlock())) {
			n[q.Kind]++
		}
		if n[light] != 56 || n[heavy] != 28 {
			t.Errorf("seed %d block: %v", seed, n)
		}
	}
	figs := map[string]kind{fig3Query: heavy, fig4Query(7): light, fig5Query: heavy}
	for _, q := range agentPool(c, 7) {
		if k, ok := figs[q.Text]; ok {
			if q.Kind != k || q.Rows < 1 {
				t.Errorf("figure query classed %v with %d rows", q.Kind, q.Rows)
			}
			delete(figs, q.Text)
		}
	}
	if len(figs) != 0 {
		t.Errorf("agent pool lacks %d of the paper's figures", len(figs))
	}
}

type fixedGen struct{ q request }

func (g fixedGen) next() (request, error) { return g.q, nil }

// TestOpenLoopChargesStallsToLaterRequests stalls the server once and
// checks that requests due during the stall are timed from their due
// time, not from when the stalled connection let them go out.
func TestOpenLoopChargesStallsToLaterRequests(t *testing.T) {
	var calls atomic.Int64
	ts := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		if calls.Add(1) == 1 {
			time.Sleep(200 * time.Millisecond)
		}
		w.Write([]byte(`{"columns":["n"],"rows":[],"count":0}`))
	}))
	defer ts.Close()
	c := newClient(ts.URL)
	defer c.close()

	stop := make(chan struct{})
	time.AfterFunc(400*time.Millisecond, func() { close(stop) })
	r := openLoop(context.Background(), c, fixedGen{request{Text: "q", Kind: light, Rows: -1}}, 100, stop, nil)
	if r.Failed != 0 || len(r.Done) < 20 {
		t.Fatalf("%d failed, %d done", r.Failed, len(r.Done))
	}
	// Requests 1.. were due every 10 ms during the 200 ms stall: each
	// waited for it, and its latency must say so.
	slow := 0
	for _, d := range r.Done[1:] {
		if d.Lat >= 100*time.Millisecond {
			slow++
		}
	}
	if slow < 5 {
		t.Errorf("only %d requests after the stall were charged for it", slow)
	}
	if percentile(durMS(r.Late), 100) < 100 {
		t.Errorf("generator lateness %v ms misses the stall", percentile(durMS(r.Late), 100))
	}
}

func TestSelfTimeSubtractsCoveredChildTime(t *testing.T) {
	spans := []span{
		{ID: 1, Name: "root", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 10, End: 30},
		{ID: 3, Parent: 1, Name: "b", Start: 20, End: 50},  // overlaps a
		{ID: 4, Parent: 1, Name: "c", Start: 90, End: 120}, // runs past its parent
		{ID: 5, Parent: 3, Name: "d", Start: 25, End: 45},  // grandchild of root
	}
	self := selfTimes(spans)
	for id, want := range map[int]time.Duration{1: 50, 2: 20, 3: 10, 4: 30, 5: 20} {
		if self[id] != want {
			t.Errorf("span %d self = %d, want %d", id, self[id], want)
		}
	}
	if got := durationsMS(spans, "root", self); len(got) != 1 || got[0] != ms(50) {
		t.Errorf("root self ms = %v", got)
	}
}

func TestRecorderOffIsFree(t *testing.T) {
	var r *recorder
	if id := r.begin("x", 0); id != 0 {
		t.Fatalf("nil recorder returned span %d", id)
	}
	r.end(0)
	r.add("x", 0, time.Now(), time.Now())
}

// TestBodyCheckCountsRowsWithoutDecoding checks that the cheap body
// check counts the rows a full decode finds, brackets and escapes in the
// values included, and rejects the bodies the full decode rejects.
func TestBodyCheckCountsRowsWithoutDecoding(t *testing.T) {
	good := []struct {
		name, body string
		stream     bool
		rows       int
	}{
		{"empty", `{"columns":["n"],"rows":null,"count":0}`, false, 0},
		{"tricky", `{"columns":["a","b"],"rows":[["\"[x]\"","{"],["\\","]]"],["a\"],[\"b",""]],"count":3,"cached":true}`, false, 3},
		{"stream", "{\"columns\":[\"n\"]}\n{\"row\":[\"\\\"]\"]}\n{\"row\":[\"[\"]}\n{\"count\":2}\n", true, 2},
	}
	for _, c := range good {
		for _, full := range []bool{false, true} {
			var a answer
			var err error
			if c.stream {
				err = parseStream([]byte(c.body), &a, full)
			} else {
				err = parseQuery([]byte(c.body), &a, full)
			}
			if err != nil || a.N != c.rows {
				t.Errorf("%s (full %v): %d rows, %v; want %d", c.name, full, a.N, err, c.rows)
			}
			if full && len(a.Rows) != c.rows {
				t.Errorf("%s: decoded %d rows, want %d", c.name, len(a.Rows), c.rows)
			}
		}
	}
	bad := []struct {
		name, body string
		stream     bool
	}{
		{"count", `{"columns":["n"],"rows":[["1"]],"count":2}`, false},
		{"syntax", `{"columns":["n"],"rows":[["1"],"count":1}`, false},
		{"no columns", `{"rows":[],"count":0}`, false},
		{"stream row", "{\"columns\":[\"n\"]}\n{\"row\":[\"1\"]\n{\"count\":1}\n", true},
		{"stream error", "{\"columns\":[\"n\"]}\n{\"row\":[\"1\"]}\n{\"count\":1,\"error\":\"budget\"}\n", true},
		{"stream count", "{\"columns\":[\"n\"]}\n{\"row\":[\"1\"]}\n{\"count\":2}\n", true},
	}
	for _, c := range bad {
		for _, full := range []bool{false, true} {
			var a answer
			var err error
			if c.stream {
				err = parseStream([]byte(c.body), &a, full)
			} else {
				err = parseQuery([]byte(c.body), &a, full)
			}
			if err == nil {
				t.Errorf("%s (full %v): accepted", c.name, full)
			}
		}
	}
}
