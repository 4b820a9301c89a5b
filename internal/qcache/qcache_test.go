package qcache

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"frappe/internal/graph"
	"frappe/internal/query"
)

// fakeResult builds a result table whose EstimateSize scales with rows
// and payload length, so eviction tests can steer the byte budget.
func fakeResult(rows int, payload string) *query.Result {
	r := &query.Result{Columns: []string{"v"}}
	for i := 0; i < rows; i++ {
		r.Rows = append(r.Rows, []query.Val{query.ScalarVal(graph.Str(payload))})
	}
	return r
}

func key(epoch int64, text string) Key {
	return Key{Epoch: epoch, Text: text}
}

func TestPlanCacheParsesOnce(t *testing.T) {
	c := New(Config{})
	const text = "START n=node(*) RETURN n"
	q1, err := c.Plan(text)
	if err != nil {
		t.Fatal(err)
	}
	q2, err := c.Plan(text)
	if err != nil {
		t.Fatal(err)
	}
	if q1 != q2 {
		t.Fatal("second Plan did not return the cached pointer")
	}
	st := c.Stats()
	if st.PlanMisses != 1 || st.PlanHits != 1 {
		t.Fatalf("plan hits/misses = %d/%d, want 1/1", st.PlanHits, st.PlanMisses)
	}
}

func TestPlanCacheDoesNotCacheErrors(t *testing.T) {
	c := New(Config{})
	for i := 0; i < 2; i++ {
		if _, err := c.Plan("THIS IS NOT CYPHER"); err == nil {
			t.Fatal("expected parse error")
		}
	}
	st := c.Stats()
	if st.PlanMisses != 2 || st.PlanHits != 0 {
		t.Fatalf("error query cached: hits/misses = %d/%d", st.PlanHits, st.PlanMisses)
	}
}

func TestPlanCacheLRUEviction(t *testing.T) {
	c := New(Config{MaxPlans: 2})
	texts := []string{
		"START a=node(*) RETURN a",
		"START b=node(*) RETURN b",
		"START c=node(*) RETURN c",
	}
	for _, q := range texts {
		if _, err := c.Plan(q); err != nil {
			t.Fatal(err)
		}
	}
	// texts[0] was evicted; re-planning it must miss again.
	if _, err := c.Plan(texts[0]); err != nil {
		t.Fatal(err)
	}
	if st := c.Stats(); st.PlanMisses != 4 {
		t.Fatalf("plan misses = %d, want 4 (LRU eviction of oldest)", st.PlanMisses)
	}
}

func TestDoHitAndMiss(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	want := fakeResult(2, "x")
	execs := 0
	exec := func() (*query.Result, error) { execs++; return want, nil }

	res, out, err := c.Do(context.Background(), k, exec)
	if err != nil || res != want || out.Hit || out.Shared {
		t.Fatalf("first Do: res=%p out=%+v err=%v", res, out, err)
	}
	res, out, err = c.Do(context.Background(), k, exec)
	if err != nil || res != want || !out.Hit {
		t.Fatalf("second Do: out=%+v err=%v", out, err)
	}
	if execs != 1 {
		t.Fatalf("exec ran %d times, want 1", execs)
	}
	if hits := c.EntryHits(k); hits != 1 {
		t.Fatalf("EntryHits = %d, want 1", hits)
	}
}

// TestKeyIncludesLimits is the regression test for the limits-poisoning
// bug: a run under tight limits and a run under loose limits are
// different cache entries, in both directions.
func TestKeyIncludesLimits(t *testing.T) {
	c := New(Config{})
	loose := Key{Epoch: 1, Text: "q", Limits: query.Limits{MaxRows: 1000}}
	tight := Key{Epoch: 1, Text: "q", Limits: query.Limits{MaxRows: 1}}

	full := fakeResult(5, "row")
	if _, _, err := c.Do(context.Background(), loose, func() (*query.Result, error) { return full, nil }); err != nil {
		t.Fatal(err)
	}
	// The tight run must NOT see the loose run's cached success; it
	// executes and surfaces its own budget error.
	wantErr := errors.New("budget exceeded")
	_, out, err := c.Do(context.Background(), tight, func() (*query.Result, error) { return nil, wantErr })
	if out.Hit || !errors.Is(err, wantErr) {
		t.Fatalf("tight-limit run served from loose-limit cache: out=%+v err=%v", out, err)
	}
	// And the loose entry is still there, unpoisoned.
	res, out, err := c.Do(context.Background(), loose, func() (*query.Result, error) {
		t.Fatal("loose rerun should have hit")
		return nil, nil
	})
	if err != nil || !out.Hit || len(res.Rows) != 5 {
		t.Fatalf("loose rerun: out=%+v err=%v", out, err)
	}
}

func TestKeyIncludesEpoch(t *testing.T) {
	c := New(Config{})
	execs := 0
	exec := func() (*query.Result, error) { execs++; return fakeResult(1, "x"), nil }
	for _, epoch := range []int64{1, 2, 1} {
		if _, _, err := c.Do(context.Background(), key(epoch, "q"), exec); err != nil {
			t.Fatal(err)
		}
	}
	if execs != 2 {
		t.Fatalf("exec ran %d times, want 2 (epochs 1 and 2; second epoch-1 call hits)", execs)
	}
}

func TestErrorsNotCached(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	boom := errors.New("boom")
	execs := 0
	for i := 0; i < 2; i++ {
		_, out, err := c.Do(context.Background(), k, func() (*query.Result, error) { execs++; return nil, boom })
		if !errors.Is(err, boom) || out.Hit {
			t.Fatalf("call %d: out=%+v err=%v", i, out, err)
		}
	}
	if execs != 2 {
		t.Fatalf("failed exec ran %d times, want 2 (errors must not be cached)", execs)
	}
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("error left %d cache entries", st.Entries)
	}
}

func TestByteBudgetEviction(t *testing.T) {
	payload := strings.Repeat("x", 1024)
	one := EstimateSize(fakeResult(1, payload))
	c := New(Config{MaxBytes: 3 * one})
	for i := 0; i < 4; i++ {
		k := key(1, fmt.Sprintf("q%d", i))
		if _, _, err := c.Do(context.Background(), k, func() (*query.Result, error) {
			return fakeResult(1, payload), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	st := c.Stats()
	if st.Evictions == 0 {
		t.Fatal("no evictions despite exceeding the byte budget")
	}
	if st.Bytes > 3*one {
		t.Fatalf("cache holds %d bytes, budget %d", st.Bytes, 3*one)
	}
	// The oldest entry (q0) was evicted; the newest is still cached.
	if _, out, _ := c.Do(context.Background(), key(1, "q3"), func() (*query.Result, error) {
		return fakeResult(1, payload), nil
	}); !out.Hit {
		t.Fatal("newest entry evicted instead of oldest")
	}
	if _, out, _ := c.Do(context.Background(), key(1, "q0"), func() (*query.Result, error) {
		return fakeResult(1, payload), nil
	}); out.Hit {
		t.Fatal("oldest entry survived past the byte budget")
	}
}

func TestOversizedResultNotCached(t *testing.T) {
	c := New(Config{MaxBytes: 128})
	k := key(1, "q")
	big := fakeResult(100, strings.Repeat("x", 256))
	execs := 0
	for i := 0; i < 2; i++ {
		if _, _, err := c.Do(context.Background(), k, func() (*query.Result, error) { execs++; return big, nil }); err != nil {
			t.Fatal(err)
		}
	}
	if execs != 2 {
		t.Fatalf("oversized result was cached (exec ran %d times)", execs)
	}
	if st := c.Stats(); st.Bytes != 0 || st.Entries != 0 {
		t.Fatalf("oversized result retained: %+v", st)
	}
}

func TestEntryCountEviction(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	for i := 0; i < 3; i++ {
		k := key(1, fmt.Sprintf("q%d", i))
		if _, _, err := c.Do(context.Background(), k, func() (*query.Result, error) {
			return fakeResult(1, "x"), nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	if st := c.Stats(); st.Entries != 2 || st.Evictions != 1 {
		t.Fatalf("entries=%d evictions=%d, want 2/1", st.Entries, st.Evictions)
	}
}

func TestInvalidate(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	execs := 0
	exec := func() (*query.Result, error) { execs++; return fakeResult(1, "x"), nil }
	if _, _, err := c.Do(context.Background(), k, exec); err != nil {
		t.Fatal(err)
	}
	c.Invalidate()
	if st := c.Stats(); st.Entries != 0 || st.Bytes != 0 || st.Invalidations != 1 {
		t.Fatalf("after Invalidate: %+v", st)
	}
	if _, out, err := c.Do(context.Background(), k, exec); err != nil || out.Hit {
		t.Fatalf("post-invalidate Do hit stale entry: out=%+v err=%v", out, err)
	}
	if execs != 2 {
		t.Fatalf("exec ran %d times, want 2", execs)
	}
}

// TestInvalidateDropsInFlightInsert: a leader that finishes after an
// invalidation (snapshot swap mid-query) must not publish its result
// into the fresh cache.
func TestInvalidateDropsInFlightInsert(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	started := make(chan struct{})
	release := make(chan struct{})
	done := make(chan struct{})
	go func() {
		defer close(done)
		_, _, _ = c.Do(context.Background(), k, func() (*query.Result, error) {
			close(started)
			<-release
			return fakeResult(1, "stale"), nil
		})
	}()
	<-started
	c.Invalidate() // the swap happens while the leader is executing
	close(release)
	<-done
	if st := c.Stats(); st.Entries != 0 {
		t.Fatalf("stale leader inserted into post-swap cache: %+v", st)
	}
}

// TestSingleflight: N concurrent identical queries execute once. Run
// under -race in CI.
func TestSingleflight(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	const n = 32
	var execs atomic.Int64
	barrier := make(chan struct{})
	want := fakeResult(3, "row")

	var wg sync.WaitGroup
	var hits, shared, misses atomic.Int64
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			res, out, err := c.Do(context.Background(), k, func() (*query.Result, error) {
				execs.Add(1)
				<-barrier // hold every follower in the flight window
				return want, nil
			})
			if err != nil || res != want {
				t.Errorf("res=%p err=%v", res, err)
			}
			switch {
			case out.Hit:
				hits.Add(1)
			case out.Shared:
				shared.Add(1)
			default:
				misses.Add(1)
			}
		}()
	}
	// Wait until the leader is inside exec, then let everyone pile up.
	for c.Stats().Misses == 0 {
	}
	close(barrier)
	wg.Wait()

	if got := execs.Load(); got != 1 {
		t.Fatalf("exec ran %d times under %d concurrent callers, want 1", got, n)
	}
	if misses.Load() != 1 {
		t.Fatalf("misses = %d, want exactly 1 leader", misses.Load())
	}
	if hits.Load()+shared.Load() != n-1 {
		t.Fatalf("hits=%d shared=%d, want %d combined", hits.Load(), shared.Load(), n-1)
	}
}

func TestFollowerContextCancel(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	started := make(chan struct{})
	release := make(chan struct{})
	leaderDone := make(chan struct{})
	go func() {
		defer close(leaderDone)
		_, _, _ = c.Do(context.Background(), k, func() (*query.Result, error) {
			close(started)
			<-release
			return fakeResult(1, "x"), nil
		})
	}()
	<-started

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	_, _, err := c.Do(ctx, k, func() (*query.Result, error) {
		t.Fatal("cancelled follower must not execute")
		return nil, nil
	})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("cancelled follower err = %v, want context.Canceled", err)
	}
	close(release)
	<-leaderDone
}

func TestLeaderPanicConvertedToError(t *testing.T) {
	c := New(Config{})
	k := key(1, "q")
	_, _, err := c.Do(context.Background(), k, func() (*query.Result, error) { panic("kaboom") })
	if err == nil || !strings.Contains(err.Error(), "kaboom") {
		t.Fatalf("panic not converted to error: %v", err)
	}
	// The flight slot must be released: a retry executes normally.
	res, _, err := c.Do(context.Background(), k, func() (*query.Result, error) { return fakeResult(1, "x"), nil })
	if err != nil || res == nil {
		t.Fatalf("retry after panic: res=%v err=%v", res, err)
	}
}

// TestCompiledPlanGenerationKeyed pins the invalidation contract: a
// compiled plan is served only while the statistics generation it was
// built against is current, and a generation change forces a rebuild
// (the regression where a snapshot swap kept serving plans tuned to the
// retired graph's degree distribution).
func TestCompiledPlanGenerationKeyed(t *testing.T) {
	c := New(Config{})
	const text = `START n=node(0) RETURN n`
	if _, err := c.Plan(text); err != nil {
		t.Fatal(err)
	}
	var builds atomic.Int64
	build := func() (any, error) {
		return fmt.Sprintf("plan-%d", builds.Add(1)), nil
	}

	p1, err := c.CompiledPlan(text, 1, build)
	if err != nil || p1 != "plan-1" {
		t.Fatalf("first build: %v, %v", p1, err)
	}
	if p, _ := c.CompiledPlan(text, 1, build); p != "plan-1" {
		t.Fatalf("same generation rebuilt: got %v", p)
	}
	if p, _ := c.CompiledPlan(text, 2, build); p != "plan-2" {
		t.Fatalf("new generation must rebuild: got %v", p)
	}
	if p, _ := c.CompiledPlan(text, 2, build); p != "plan-2" {
		t.Fatalf("rebuilt plan not cached: got %v", p)
	}
	// Going back to a stale generation must also rebuild — the cache
	// keys on exact generation match, not monotonicity.
	if p, _ := c.CompiledPlan(text, 1, build); p != "plan-3" {
		t.Fatalf("stale generation served: got %v", p)
	}
	if got := c.Stats().CompiledHits; got != 2 {
		t.Fatalf("compiled hits = %d, want 2", got)
	}
}

func TestCompiledPlanBuildErrorNotCached(t *testing.T) {
	c := New(Config{})
	const text = `START n=node(0) RETURN n`
	if _, err := c.Plan(text); err != nil {
		t.Fatal(err)
	}
	boom := errors.New("boom")
	if _, err := c.CompiledPlan(text, 1, func() (any, error) { return nil, boom }); !errors.Is(err, boom) {
		t.Fatalf("err = %v", err)
	}
	p, err := c.CompiledPlan(text, 1, func() (any, error) { return "ok", nil })
	if err != nil || p != "ok" {
		t.Fatalf("after error: %v, %v", p, err)
	}
}

func TestCompiledPlanUnparsedTextNotCached(t *testing.T) {
	c := New(Config{})
	var builds atomic.Int64
	build := func() (any, error) { return builds.Add(1), nil }
	// Text never seen by Plan: built every time, never cached.
	if p, _ := c.CompiledPlan("unseen", 1, build); p != int64(1) {
		t.Fatalf("got %v", p)
	}
	if p, _ := c.CompiledPlan("unseen", 1, build); p != int64(2) {
		t.Fatalf("uncached path should rebuild, got %v", p)
	}
}

// TestHotRefillRetain: Hot lists only the entries hit at the epoch
// (most recent first), Refill stores under the new keys without
// counting a miss and caches no failure, and Retain keeps only the new
// epoch's entries.
func TestHotRefillRetain(t *testing.T) {
	c := New(Config{})
	exec := func(v string) func() (*query.Result, error) {
		return func() (*query.Result, error) { return fakeResult(1, v), nil }
	}
	for _, text := range []string{"a", "b", "cold"} {
		if _, _, err := c.Do(context.Background(), key(1, text), exec(text)); err != nil {
			t.Fatal(err)
		}
	}
	for _, text := range []string{"b", "a"} { // a is now the most recent
		if _, out, _ := c.Do(context.Background(), key(1, text), exec(text)); !out.Hit {
			t.Fatalf("%s missed", text)
		}
	}
	hot := c.Hot(1)
	if len(hot) != 2 || hot[0].Text != "a" || hot[1].Text != "b" {
		t.Fatalf("Hot(1) = %+v, want a then b", hot)
	}
	if got := c.Hot(2); len(got) != 0 {
		t.Fatalf("Hot(2) = %+v, want none", got)
	}

	misses := c.Stats().Misses
	keys := []Key{key(2, "a"), key(2, "b"), key(2, "cold"), key(2, "panics")}
	n := c.Refill(context.Background(), keys, func(_ context.Context, k Key) (*query.Result, error) {
		switch k.Text {
		case "cold":
			return nil, errors.New("boom")
		case "panics":
			panic("refill")
		}
		return fakeResult(1, k.Text+"'"), nil
	})
	st := c.Stats()
	if n != 4 || st.Refills != 4 || st.Misses != misses {
		t.Fatalf("executed %d, refills=%d misses=%d; want 4, 4 and misses still %d", n, st.Refills, st.Misses, misses)
	}

	c.Retain(2)
	st = c.Stats()
	if st.Entries != 2 || st.Invalidations != 1 {
		t.Fatalf("after Retain(2): %d entries, %d invalidations; want 2 and 1", st.Entries, st.Invalidations)
	}
	res, out, err := c.Do(context.Background(), key(2, "a"), exec("unused"))
	if err != nil || !out.Hit || res.Rows[0][0].Scalar.AsString() != "a'" {
		t.Fatalf("refilled entry: hit=%v err=%v", out.Hit, err)
	}
	if _, out, _ := c.Do(context.Background(), key(1, "a"), exec("a")); out.Hit {
		t.Fatal("Retain kept an entry of another epoch")
	}
	if got := c.Hot(2); len(got) != 1 || got[0].Text != "a" {
		t.Fatalf("Hot(2) = %+v, want the one refilled entry read since", got)
	}
}

// TestRefillStopsWhenDone: a refill whose context is done executes no
// further key and caches only what finished, and the refilled entries
// keep the order they were given in, first key most recently used.
func TestRefillStopsWhenDone(t *testing.T) {
	c := New(Config{MaxEntries: 2})
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var ran []string
	keys := []Key{key(1, "a"), key(1, "b"), key(1, "c"), key(1, "d")}
	n := c.Refill(ctx, keys, func(_ context.Context, k Key) (*query.Result, error) {
		ran = append(ran, k.Text)
		if k.Text == "c" {
			cancel() // the deadline passes during c
		}
		return fakeResult(1, k.Text), nil
	})
	if n != 3 || strings.Join(ran, "") != "abc" {
		t.Fatalf("executed %d keys (%q), want a, b and c", n, ran)
	}
	// MaxEntries 2 evicts the least recently used of a, b, c: c.
	miss := func() (*query.Result, error) { return fakeResult(1, "miss"), nil }
	for _, text := range []string{"a", "b", "c", "d"} {
		_, out, _ := c.Do(context.Background(), key(1, text), miss)
		if want := text == "a" || text == "b"; out.Hit != want {
			t.Fatalf("%s: hit=%v, want %v", text, out.Hit, want)
		}
	}
}
