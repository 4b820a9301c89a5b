package core

import (
	"errors"
	"path/filepath"
	"sync"
	"testing"

	"frappe/internal/delta"
	"frappe/internal/graph"
	"frappe/internal/kernelgen"
	"frappe/internal/qcache"
	"frappe/internal/query"
)

// swapTo publishes g at epoch through UpdateWith.
func swapTo(t *testing.T, eng *Engine, g *graph.Graph, epoch int64) {
	t.Helper()
	swapped, err := eng.UpdateWith(func(graph.Source) (*graph.Graph, int64, *UpdateSummary, error) {
		return g, epoch, &UpdateSummary{Epoch: epoch}, nil
	})
	if err != nil || !swapped {
		t.Fatalf("UpdateWith: swapped=%v err=%v", swapped, err)
	}
}

// TestRefillMatchesUncached: a swap re-executes the results hit during
// the outgoing epoch against the new snapshot, so the first read after
// it hits, and the hit formats byte-identically to an uncached
// execution on the new graph. Results never hit are not refilled, a
// refill that fails is not cached, and refills are not misses.
func TestRefillMatchesUncached(t *testing.T) {
	eng, gA, gB := cachedEngine(t)
	defer eng.Close()
	// Loose enough for every query on graph A; the scan of every node
	// exceeds it on the larger graph B, and so fails to refill.
	eng.QueryLimits = query.Limits{MaxRows: int(gA.NodeCount())}
	scan := `START n=node(*) RETURN n`
	hot := []string{
		`MATCH (f:file) RETURN f.name ORDER BY f.name`,
		`MATCH (f:function) -[:calls]-> (g:function) RETURN f.short_name, g.short_name ORDER BY f.short_name, g.short_name`,
		`MATCH (n:function) RETURN n.short_name ORDER BY n.short_name`,
	}
	cold := `MATCH (s:struct) RETURN s.short_name ORDER BY s.short_name`
	for _, text := range append(hot, scan) {
		for i := 0; i < 2; i++ { // a miss, then a hit
			if _, err := eng.Query(ctx, text); err != nil {
				t.Fatal(err)
			}
		}
	}
	if _, err := eng.Query(ctx, cold); err != nil {
		t.Fatal(err)
	}
	before := *eng.QueryCacheStats()

	swapTo(t, eng, gB, 1)
	after := *eng.QueryCacheStats()
	if got, want := after.Refills-before.Refills, int64(len(hot)+1); got != want {
		t.Fatalf("swap made %d refills, want %d (hot texts plus the failing scan)", got, want)
	}
	if after.Misses != before.Misses {
		t.Fatalf("refills counted as misses: %d -> %d", before.Misses, after.Misses)
	}
	if after.Entries != int64(len(hot)) {
		t.Fatalf("cache holds %d entries after the swap, want the %d refilled", after.Entries, len(hot))
	}

	snap := eng.Snapshot()
	src := snap.Source()
	for _, text := range hot {
		res, out, err := eng.CachedQuery(ctx, snap, text, false)
		if err != nil {
			t.Fatal(err)
		}
		if !out.Hit {
			t.Fatalf("first read of hot %q after the swap missed", text)
		}
		direct, _, err := eng.CachedQuery(ctx, snap, text, true)
		if err != nil {
			t.Fatal(err)
		}
		if got, want := res.Format(src), direct.Format(src); got != want {
			t.Fatalf("refilled %q differs from uncached execution:\n%s\nvs\n%s", text, got, want)
		}
	}
	if _, out, err := eng.CachedQuery(ctx, snap, cold, false); err != nil || out.Hit {
		t.Fatalf("never-hit text was refilled: hit=%v err=%v", out.Hit, err)
	}
	if _, out, err := eng.CachedQuery(ctx, snap, scan, false); !errors.Is(err, query.ErrBudgetExceeded) || out.Hit {
		t.Fatalf("failed refill: hit=%v err=%v, want an executed budget error", out.Hit, err)
	}
}

// TestSameEpochSwapRefillsNothing: a swap that keeps the epoch cannot
// tell old entries from new ones, so it drops everything and refills
// nothing.
func TestSameEpochSwapRefillsNothing(t *testing.T) {
	eng, _, gB := cachedEngine(t)
	defer eng.Close()
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(ctx, countQuery); err != nil {
			t.Fatal(err)
		}
	}
	before := *eng.QueryCacheStats()
	swapTo(t, eng, gB, eng.Epoch())
	after := *eng.QueryCacheStats()
	if after.Refills != before.Refills || after.Entries != 0 {
		t.Fatalf("same-epoch swap: refills %d -> %d, %d entries left", before.Refills, after.Refills, after.Entries)
	}
}

// TestPublishComputesStats: every published snapshot carries its
// planner statistics before any reader sees it.
func TestPublishComputesStats(t *testing.T) {
	eng, _, gB := twoGraphs(t)
	defer eng.Close()
	swapTo(t, eng, gB.Graph, 1)
	gs := eng.Snapshot().gs
	if gs.st == nil || gs.st.Nodes != gB.Graph.NodeCount() {
		t.Fatalf("published snapshot has statistics %+v, want them for the new graph", gs.st)
	}
}

// phaseCounts reads every update phase histogram's sample count and sum.
func phaseCounts() map[string][2]float64 {
	out := map[string][2]float64{}
	for _, p := range []string{"plan", "frontend", "assemble", "diff", "stage", "publish", "refill"} {
		s := delta.PhaseHistogram(p).Snapshot()
		out[p] = [2]float64{float64(s.Count), s.Sum}
	}
	return out
}

// TestUpdatePhasesAndDuration: one applied update through the live
// update path observes exactly one sample per phase, and
// frappe_core_update_duration_ms covers the whole call, publish and
// refill included. A no-op update and a direct Swap observe no phase.
func TestUpdatePhasesAndDuration(t *testing.T) {
	w := kernelgen.Generate(kernelgen.Tiny())
	sess, res, err := delta.NewSession(w.Build, w.ExtractOptions())
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "db")
	if err := delta.PersistIndex(dir, sess, res.Graph, delta.Record{Epoch: 0}); err != nil {
		t.Fatal(err)
	}
	eng := FromGraph(res.Graph)
	defer eng.Close()
	eng.SetQueryCache(qcache.New(qcache.Config{}))
	// A hot query that takes real time to refill makes the publish slow.
	heavy := `START n=node(*) MATCH n -[*1..3]-> m RETURN count(*)`
	for i := 0; i < 2; i++ {
		if _, err := eng.Query(ctx, heavy); err != nil {
			t.Fatal(err)
		}
	}
	w.FS[w.Build.Units[0].Source] += "\nint phased_added(void) { return 3; }\n"

	phases := phaseCounts()
	dur := mUpdateDuration.Snapshot()
	update := func(old graph.Source) (*graph.Graph, int64, *UpdateSummary, error) {
		up, err := sess.Update(w.Build, old)
		if err != nil || up.NoOp {
			return nil, 0, nil, err
		}
		if err := delta.PersistUpdate(dir, sess, up.Result.Graph, delta.Record{Epoch: up.Epoch}); err != nil {
			return nil, 0, nil, err
		}
		return up.Result.Graph, up.Epoch, &UpdateSummary{Epoch: up.Epoch}, nil
	}
	swapped, err := eng.UpdateWith(update)
	if err != nil || !swapped {
		t.Fatalf("UpdateWith: swapped=%v err=%v", swapped, err)
	}
	var phaseSum float64
	for p, now := range phaseCounts() {
		if n := now[0] - phases[p][0]; n != 1 {
			t.Errorf("phase %s observed %v samples, want 1", p, n)
		}
		phaseSum += now[1] - phases[p][1]
	}
	after := mUpdateDuration.Snapshot()
	if after.Count-dur.Count != 1 {
		t.Fatalf("update duration observed %d samples, want 1", after.Count-dur.Count)
	}
	// The phases do not overlap and all run inside the call.
	if got := after.Sum - dur.Sum; got < phaseSum {
		t.Fatalf("update duration %.3f ms is shorter than its phases' %.3f ms", got, phaseSum)
	}

	phases = phaseCounts()
	if swapped, err := eng.UpdateWith(update); err != nil || swapped {
		t.Fatalf("repeated update: swapped=%v err=%v, want a no-op", swapped, err)
	}
	eng.Swap(res.Graph, eng.Epoch()+1, nil)
	for p, now := range phaseCounts() {
		if n := now[0] - phases[p][0]; n != 0 {
			t.Errorf("no-op update and direct swap observed %v samples of phase %s", n, p)
		}
	}
}

// TestRefillUnderConcurrentReads: readers querying through the cache
// while updates swap, refill and retain always get the answer of the
// snapshot they pinned. Run under -race.
func TestRefillUnderConcurrentReads(t *testing.T) {
	eng, gA, gB := cachedEngine(t)
	defer eng.Close()
	texts := []string{countQuery, `MATCH (n:function) RETURN n.short_name ORDER BY n.short_name`}
	want := map[*graph.Graph]map[string]string{}
	for _, g := range []*graph.Graph{gA, gB} {
		want[g] = map[string]string{}
		for _, text := range texts {
			res, err := FromGraph(g).Snapshot().Query(ctx, text, query.Limits{})
			if err != nil {
				t.Fatal(err)
			}
			want[g][text] = res.Format(g)
		}
	}
	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(r int) {
			defer wg.Done()
			for i := r; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				snap := eng.Snapshot()
				text := texts[i%len(texts)]
				res, _, err := eng.CachedQuery(ctx, snap, text, false)
				if err != nil {
					t.Error(err)
					return
				}
				if got := res.Format(snap.Graph()); got != want[snap.Graph()][text] {
					t.Errorf("epoch %d served rows of another graph for %q", snap.Epoch(), text)
					return
				}
			}
		}(r)
	}
	for epoch := int64(1); epoch <= 20; epoch++ {
		for i := 0; i < 2; i++ { // at least one hit per epoch
			if _, err := eng.Query(ctx, countQuery); err != nil {
				t.Error(err)
			}
		}
		g := gA
		if epoch%2 == 1 {
			g = gB
		}
		swapTo(t, eng, g, epoch)
	}
	close(stop)
	wg.Wait()
	if st := eng.QueryCacheStats(); st.Refills < 20 {
		t.Fatalf("20 swaps after hits made %d refills", st.Refills)
	}
}
