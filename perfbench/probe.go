package main

import (
	"context"
	"fmt"
	"time"

	"frappe/internal/core"
	"frappe/internal/plan"
	"frappe/internal/query"
	"frappe/internal/store"
)

// probeStats are the per-layer samples the traced run takes by calling
// each layer's public functions itself.
type probeStats struct {
	serverSelf []float64 // µs: HTTP round trip minus the engine call for the same text and cache outcome
	lookup     []float64 // µs: Engine.CachedQuery served from the result cache
	steps      int64
	rows       int64
	// Pager counters over pageOps executions, for workloads served from
	// memory (pagerProbe).
	pageHits, pageMisses, pageOps int64
}

// probe runs each text through every layer in turn, with spans named
// after the layer. The executor's layers come first (query.Parse,
// plan.Compile, the executor), while the text's pages and plan are as
// cold as the measured phase found them: on a disk store, the pager's
// faults and checksum checks fall in query.exec. Then come the HTTP
// round trip and Engine.CachedQuery for the same text. hit selects which
// cache outcome the server's self time is taken on: a result-cache hit,
// or a bypass that executes.
func (st *stack) probe(ctx context.Context, c *client, texts []request, hit bool) (probeStats, error) {
	var ps probeStats
	rec := st.rec
	for _, q := range texts {
		snap := st.eng.Snapshot()
		root := rec.begin("probe", 0)
		steps, rows, err := runLayers(ctx, snap, q, rec, root)
		if err != nil {
			return ps, fmt.Errorf("probe %.60q: %w", q.Text, err)
		}
		ps.steps += steps
		ps.rows += rows

		// Fill the cache so the hit pair below really hits.
		if _, _, err := st.eng.CachedQuery(ctx, snap, q.Text, false); err != nil {
			return ps, fmt.Errorf("probe %.60q: %w", q.Text, err)
		}
		t0 := time.Now()
		a, err := c.query(ctx, q, !hit, false)
		rec.add("server.http", root, t0, a.End)
		if err != nil {
			return ps, fmt.Errorf("probe %.60q: %w", q.Text, err)
		}
		if hit && !a.Cached {
			return ps, fmt.Errorf("probe %.60q: not served from the cache", q.Text)
		}
		t1 := time.Now()
		_, out, err := st.eng.CachedQuery(ctx, snap, q.Text, !hit)
		t2 := time.Now()
		rec.add("core.cached_query", root, t1, t2)
		if err != nil {
			return ps, err
		}
		ps.serverSelf = append(ps.serverSelf, float64(a.End.Sub(t0)-t2.Sub(t1))/1e3)
		if out.Hit {
			ps.lookup = append(ps.lookup, float64(t2.Sub(t1))/1e3)
		} else {
			// The hit lookup, for workloads whose texts do not repeat.
			_, out, err := st.eng.CachedQuery(ctx, snap, q.Text, false)
			if err != nil || !out.Hit {
				return ps, fmt.Errorf("probe %.60q: lookup missed (%v)", q.Text, err)
			}
			ps.lookup = append(ps.lookup, float64(time.Since(t2))/1e3)
		}
		rec.end(root)
	}
	return ps, nil
}

// runLayers parses, compiles and executes q against snap, one span per
// layer; streamed texts are drained from Plan.Stream.
func runLayers(ctx context.Context, snap *core.Snapshot, q request, rec *recorder, parent int) (steps, rows int64, err error) {
	sp := rec.begin("query.parse", parent)
	parsed, err := query.Parse(q.Text)
	rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	sp = rec.begin("plan.compile", parent)
	p := plan.Compile(parsed, snap.GraphStats())
	rec.end(sp)
	sp = rec.begin("query.exec", parent)
	defer rec.end(sp)
	if q.Stream {
		s := p.Stream(ctx, snap.Source(), limits, 0)
		for range s.Rows() {
		}
		return s.Wait()
	}
	res, err := p.Execute(ctx, snap.Source(), limits)
	if err != nil {
		return 0, 0, err
	}
	return res.Steps, int64(len(res.Rows)), nil
}

// pagerProbe opens the persisted store the way frappe serve -db does
// and runs texts against it cold, for workloads served from memory: it
// returns the pager's hit and miss counts over those texts.
func pagerProbe(ctx context.Context, dir string, texts []request, rec *recorder) (hits, misses int64, err error) {
	sp := rec.begin("store.open", 0)
	eng, err := core.Open(dir)
	rec.end(sp)
	if err != nil {
		return 0, 0, err
	}
	defer eng.Close()
	before := eng.CacheStats()
	for _, q := range texts {
		if _, err := eng.Snapshot().Query(ctx, q.Text, limits); err != nil {
			return 0, 0, fmt.Errorf("pager probe %.60q: %w", q.Text, err)
		}
	}
	hits, misses = pagerDelta(before, eng.CacheStats())
	return hits, misses, nil
}

// pagerDelta sums the page-cache hit and miss counters over every store
// file between two snapshots.
func pagerDelta(before, after map[string]store.CacheStats) (hits, misses int64) {
	for name, a := range after {
		b := before[name]
		hits += a.Hits - b.Hits
		misses += a.Misses - b.Misses
	}
	return hits, misses
}
