package main

import (
	"context"
	"fmt"
	"path/filepath"
	"runtime"
	"strconv"
	"time"

	"frappe/internal/kernelgen"
	"frappe/internal/qcache"
	"frappe/internal/store"
)

// bench is one run of one workload.
type bench struct {
	name string
	spec spec
	seed int64
	dur  time.Duration
	dir  string    // this run's private directory; removed by the caller
	rec  *recorder // nil: untraced run

	st     *stack
	client *client
	corpus *corpus
	pool   []request // agent-hot's pool, also edit-live's reader pool
	fig4   string
	spare  generator // console texts no client sends, for priming and probes
	setupS []float64
}

// window is the process and program state sampled around a phase.
type window struct {
	mem        runtime.MemStats
	qc         qcache.Stats
	pages      map[string]store.CacheStats
	cpu, steal int64
}

func (b *bench) sample() window {
	var w window
	runtime.ReadMemStats(&w.mem)
	if s := b.st.eng.QueryCacheStats(); s != nil {
		w.qc = *s
	}
	w.pages = b.st.eng.CacheStats()
	w.cpu, w.steal = procStat()
	return w
}

func (b *bench) run(ctx context.Context) (out *output, err error) {
	w := kernelgen.Generate(kernelgen.Scaled(b.spec.scale))
	defer func() {
		if b.client != nil {
			b.client.close()
		}
		if b.st != nil {
			if cerr := b.st.close(); err == nil && cerr != nil {
				err = cerr
			}
		}
	}()
	if err := b.setUp(ctx, w); err != nil {
		return nil, err
	}

	// The measured phase starts from a collected heap.
	runtime.GC()
	before := b.sample()
	load, updates, err := b.measure(ctx, w)
	if err != nil {
		return nil, err
	}
	after := b.sample()
	runtime.GC()
	var live runtime.MemStats
	runtime.ReadMemStats(&live)

	checks := b.check(ctx, load)
	var ps probeStats
	if b.rec != nil && len(checks) == 0 {
		if ps, err = b.probe(ctx, before, after); err != nil {
			return nil, err
		}
	}
	// The edits: during the reads for edit-live, after them for the
	// others. qcache misses are counted over them.
	editMisses := after.qc.Misses - before.qc.Misses
	if b.spec.epilogue > 0 {
		if err := b.st.resume(); err != nil {
			return nil, err
		}
		start := b.sample()
		if updates, err = b.st.applyEdits(ctx, b.client, edits(w.Build, b.seed, b.spec.epilogue)); err != nil {
			return nil, err
		}
		editMisses = b.sample().qc.Misses - start.qc.Misses
	}
	storeBytes, err := dirBytes(b.st.dir, time.Time{})
	if err != nil {
		return nil, err
	}

	out = &output{
		Attempted: load.Attempted + len(updates),
		Failed:    load.Failed,
		Correct:   len(checks) == 0 && load.Failed == 0,
	}
	ops := float64(len(load.Done))
	lightLat, heavyLat := split(load.Done)
	out.Diag = map[string]any{
		"workload": b.name, "seed": b.seed, "seconds": b.dur.Seconds(), "traced": b.rec != nil,
		"nproc": runtime.NumCPU(), "gomaxprocs": runtime.GOMAXPROCS(0), "go": runtime.Version(),
		"store_medium": medium(b.dir), "kernelgen_scale": b.spec.scale,
		"cpu_steal_share":       ratio(float64(after.steal-before.steal), float64(after.cpu-before.cpu)),
		"generator_late_p90_ms": percentile(durMS(load.Late), 90),
		"samples":               map[string]int{"light": len(lightLat), "heavy": len(heavyLat), "update": len(updates)},
		"setup_s_each":          b.setupS,
		"server_5xx":            load.Server5xx,
		"checks_failed":         append(checks, load.Errors...),
		"peak_rss_mb":           peakRSSMB(),
	}
	opsS := ops / load.Elapsed.Seconds()
	if b.rec != nil {
		out.Metrics = b.layers(load, before, after, editMisses, len(updates), ps, opsS)
		return out, nil
	}
	out.Metrics = map[string]metric{
		"setup_s":         {median(b.setupS), "s"},
		"ops_s":           {opsS, "1/s"},
		"light_p50_ms":    {percentile(lightLat, 50), "ms"},
		"light_p90_ms":    {percentile(lightLat, 90), "ms"},
		"heavy_p50_ms":    {percentile(heavyLat, 50), "ms"},
		"heavy_p90_ms":    {percentile(heavyLat, 90), "ms"},
		"update_p50_ms":   {median(updates), "ms"},
		"alloc_kb_per_op": {ratio(float64(after.mem.TotalAlloc-before.mem.TotalAlloc)/1024, ops), "KiB"},
		"heap_mb":         {float64(live.HeapAlloc) / (1 << 20), "MiB"},
		"store_mb":        {float64(storeBytes) / (1 << 20), "MiB"},
	}
	return out, nil
}

// setUp builds the serving stack several times; setup_s is the median.
// Each set-up indexes, persists, opens, starts the server and primes it
// with a fixed number of requests; all but the last are torn down.
func (b *bench) setUp(ctx context.Context, w *kernelgen.Workload) error {
	for i := 0; i < b.spec.setups; i++ {
		if ctx.Err() != nil {
			return ctx.Err()
		}
		if b.st != nil {
			err := b.st.close()
			b.client.close()
			b.st, b.client = nil, nil
			if err != nil {
				return err
			}
			runtime.GC()
		}
		start := time.Now()
		st, err := newStack(w, filepath.Join(b.dir, "store-"+strconv.Itoa(i)), b.spec.disk, b.rec)
		if err != nil {
			return err
		}
		b.st, b.client = st, newClient(st.ts.URL)
		built := time.Since(start)
		if b.corpus == nil { // harness work, not timed
			b.corpus = newCorpus(st.graph)
			fid, ok := st.eng.FileIDOf("drivers/scsi/sr.c")
			if !ok {
				return fmt.Errorf("corpus has no drivers/scsi/sr.c")
			}
			b.pool = agentPool(b.corpus, fid)
			b.fig4 = fig4Query(fid)
		}
		st.graph = nil
		start = time.Now()
		if err := b.prime(ctx); err != nil {
			return fmt.Errorf("priming: %w", err)
		}
		b.setupS = append(b.setupS, (built + time.Since(start)).Seconds())
	}
	return nil
}

// measure runs the workload's measured phase. It returns what the
// readers saw and, for edit-live, each edit's edit-to-visible time.
func (b *bench) measure(ctx context.Context, w *kernelgen.Workload) (loadResult, []float64, error) {
	var load loadResult
	var updates []float64
	var err error
	switch b.name {
	case "agent-hot":
		load = closedLoop(ctx, b.client, []generator{
			newZipfStream(b.pool, b.seed*2), newZipfStream(b.pool, b.seed*2+1),
		}, b.dur, b.seed, 0, b.rec)
	case "console-cold":
		// One console user: with two, each client's latencies swung with
		// the GC cycles and scans of the other, and no run-to-run spread
		// stayed inside its bound.
		load = closedLoop(ctx, b.client, []generator{
			newConsoleStream(b.corpus, b.seed, 0, 3),
		}, b.dur, b.seed, digestEvery, b.rec)
	case "edit-live":
		// One editor, one open-loop reader: nproc connections. The edit
		// count is fixed by the run length, never by elapsed time.
		n := int(b.dur / time.Second) // one edit per second of run length
		stop := make(chan struct{})
		done := make(chan struct{})
		go func() {
			defer close(done)
			defer close(stop)
			updates, err = b.st.applyEdits(ctx, b.client, edits(w.Build, b.seed, n))
		}()
		load = openLoop(ctx, b.client, newPassStream(b.pool, b.seed), readRate, stop, b.rec)
		<-done
	}
	if err == nil {
		err = ctx.Err()
	}
	return load, updates, err
}

// split separates latencies, in milliseconds, by request kind.
func split(done []timed) (lightMS, heavyMS []float64) {
	for _, t := range done {
		if t.Kind == light {
			lightMS = append(lightMS, ms(t.Lat))
		} else {
			heavyMS = append(heavyMS, ms(t.Lat))
		}
	}
	return lightMS, heavyMS
}

func durMS(ds []time.Duration) []float64 {
	out := make([]float64, len(ds))
	for i, d := range ds {
		out[i] = ms(d)
	}
	return out
}

// prime sends a fixed set of requests before the measured phase: every
// pool text once (filling the result cache), or for console-cold the
// paper's three figures and 16 console texts. Answers are checked.
func (b *bench) prime(ctx context.Context) error {
	texts := b.pool
	if b.name == "console-cold" {
		g := newConsoleStream(b.corpus, b.seed, 2, 3)
		texts = []request{
			{Text: fig3Query, Kind: heavy, Rows: 2},
			{Text: b.fig4, Kind: light, Rows: 1},
			{Text: fig5Query, Kind: heavy, Rows: 1},
		}
		for i := 0; i < 16; i++ {
			q, err := g.next()
			if err != nil {
				return err
			}
			texts = append(texts, q)
		}
		b.spare = g
	}
	var r loadResult
	for _, q := range texts {
		r.send(ctx, b.client, q, time.Now(), false, nil, 0)
	}
	if ctx.Err() != nil {
		return ctx.Err()
	}
	if r.Failed > 0 {
		return fmt.Errorf("%d of %d failed: %v", r.Failed, r.Attempted, r.Errors)
	}
	return nil
}

// check verifies what the measured phase saw: no 5xx, enough samples
// for the p90 of each kind, and each sampled console response equal to
// Snapshot.Query's answer with the cache bypassed.
func (b *bench) check(ctx context.Context, load loadResult) []string {
	var bad []string
	if load.Server5xx > 0 {
		bad = append(bad, fmt.Sprintf("%d responses were 5xx", load.Server5xx))
	}
	lightMS, heavyMS := split(load.Done)
	for _, k := range []struct {
		name string
		n    int
	}{{"light", len(lightMS)}, {"heavy", len(heavyMS)}} {
		if beyond(k.n, 90) < 10 {
			bad = append(bad, fmt.Sprintf("%d %s samples leave fewer than 10 beyond the p90", k.n, k.name))
		}
	}
	snap := b.st.eng.Snapshot()
	for _, s := range load.Sampled {
		res, err := snap.Query(ctx, s.Text, limits)
		if err != nil {
			bad = append(bad, fmt.Sprintf("oracle %.60q: %v", s.Text, err))
			continue
		}
		rows := make([][]string, len(res.Rows))
		for i, row := range res.Rows {
			rows[i] = make([]string, len(row))
			for j, v := range row {
				rows[i][j] = v.Format(snap.Source())
			}
		}
		if len(rows) != s.Rows || digest(rows) != s.Digest {
			bad = append(bad, fmt.Sprintf("%.60q: served %d rows that differ from the oracle's %d", s.Text, s.Rows, len(rows)))
		}
	}
	if b.name == "console-cold" && len(load.Sampled) == 0 {
		bad = append(bad, "no console response was sampled for the digest check")
	}
	return bad
}

// probe takes the traced run's per-layer samples after the measured
// phase: the workload's own texts through each layer in turn, on the
// cache outcome most measured requests had.
func (b *bench) probe(ctx context.Context, before, after window) (probeStats, error) {
	texts := append(append(append([]request(nil), b.pool...), b.pool...), b.pool...)
	if b.name == "console-cold" {
		texts = nil
		for i := 0; i < 32; i++ {
			q, err := b.spare.next()
			if err != nil {
				return probeStats{}, err
			}
			texts = append(texts, q)
		}
	}
	hits := float64(after.qc.Hits - before.qc.Hits)
	hit := ratio(hits, hits+float64(after.qc.Misses-before.qc.Misses)) >= 0.5
	ps, err := b.st.probe(ctx, b.client, texts, hit)
	if err != nil || b.spec.disk {
		return ps, err
	}
	ps.pageHits, ps.pageMisses, err = pagerProbe(ctx, b.st.dir, b.pool, b.rec)
	ps.pageOps = int64(len(b.pool))
	return ps, err
}

// layers computes the per-layer metrics of a traced run.
func (b *bench) layers(load loadResult, before, after window, editMisses int64, updates int, ps probeStats, opsS float64) map[string]metric {
	spans := b.rec.closed()
	self := selfTimes(spans)
	med := func(name string) float64 { return median(durationsMS(spans, name, nil)) }
	ops := float64(len(load.Done))
	qh, qm := float64(after.qc.Hits-before.qc.Hits), float64(after.qc.Misses-before.qc.Misses)
	ph, pm, pops := float64(ps.pageHits), float64(ps.pageMisses), float64(ps.pageOps)
	if b.spec.disk {
		h, m := pagerDelta(before.pages, after.pages)
		ph, pm, pops = float64(h), float64(m), ops
	}
	b.st.mu.Lock()
	reext, written := mean(b.st.reext), mean(b.st.written)
	b.st.mu.Unlock()
	return map[string]metric{
		"server.self_us":                 {median(ps.serverSelf), "us"},
		"server.resp_kb":                 {ratio(float64(load.Bytes)/1024, ops), "KiB"},
		"qcache.lookup_us":               {median(ps.lookup), "us"},
		"qcache.hit_ratio":               {ratio(qh, qh+qm), "ratio"},
		"qcache.misses_per_update":       {ratio(float64(editMisses), float64(updates)), "count"},
		"query.parse_us":                 {med("query.parse") * 1000, "us"},
		"plan.compile_us":                {med("plan.compile") * 1000, "us"},
		"query.exec_ms":                  {med("query.exec"), "ms"},
		"query.steps_per_row":            {ratio(float64(ps.steps), float64(ps.rows)), "count"},
		"store.page_hit_ratio":           {ratio(ph, ph+pm), "ratio"},
		"store.pages_read_per_op":        {ratio(pm, pops), "count"},
		"extract.index_s":                {med("extract.index") / 1000, "s"},
		"delta.persist_index_s":          {med("delta.persist_index") / 1000, "s"},
		"store.open_ms":                  {med("store.open"), "ms"},
		"delta.update_ms":                {med("delta.update"), "ms"},
		"delta.units_reextracted":        {reext, "count"},
		"delta.persist_ms":               {med("delta.persist"), "ms"},
		"store.bytes_written_per_update": {written, "B"},
		"core.publish_ms":                {median(durationsMS(spans, "core.update_with", self)), "ms"},
		"gc.cycles_per_op":               {ratio(float64(after.mem.NumGC-before.mem.NumGC), ops), "count"},
		"gc.pause_ms":                    {float64(after.mem.PauseTotalNs-before.mem.PauseTotalNs) / 1e6, "ms"},
		"loadgen.late_p90_ms":            {percentile(durMS(load.Late), 90), "ms"},
		"loadgen.traced_ops_s":           {opsS, "1/s"},
	}
}
