// Package core is Frappé itself: the engine tying together the
// extractor, the graph repository (in-memory or disk-backed with a page
// cache), the Cypher query processor and the embedded traversal API, and
// exposing the paper's §4 use cases as first-class operations — code
// search, cross-referencing (go-to-definition / find-references),
// debugging path queries, and code comprehension (program slices over
// the call graph, change impact, shortest paths).
//
// The engine serves a codebase that changes while it runs: the live
// graph is one immutable Snapshot behind an atomic pointer. Queries
// pin a snapshot for their whole execution; an incremental update
// builds the next snapshot off to the side and publishes it with a
// single pointer swap, so in-flight queries finish on the state they
// started with and never observe a half-applied update.
package core

import (
	"context"
	"errors"
	"fmt"
	"log"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"frappe/internal/atomicfile"
	"frappe/internal/cpp"
	"frappe/internal/extract"
	"frappe/internal/graph"
	"frappe/internal/gstats"
	"frappe/internal/model"
	"frappe/internal/obs/trace"
	"frappe/internal/plan"
	"frappe/internal/qcache"
	"frappe/internal/query"
	"frappe/internal/store"
	"frappe/internal/traversal"
)

// UpdateSummary records the last applied incremental update, surfaced
// by /api/stats and /readyz.
type UpdateSummary struct {
	Epoch            int64   `json:"epoch"`
	Time             string  `json:"time,omitempty"`
	FilesAdded       int     `json:"filesAdded"`
	FilesModified    int     `json:"filesModified"`
	FilesRemoved     int     `json:"filesRemoved"`
	UnitsReextracted int     `json:"unitsReextracted"`
	NodesAdded       int     `json:"nodesAdded"`
	NodesRemoved     int     `json:"nodesRemoved"`
	EdgesAdded       int     `json:"edgesAdded"`
	EdgesRemoved     int     `json:"edgesRemoved"`
	WallMillis       float64 `json:"wallMillis"`
}

// Snapshot is one immutable published state of the graph: the source,
// its file maps, the epoch it represents, and a lazily computed metrics
// cache. All read operations live here so that a caller holding a
// snapshot sees exactly one graph state no matter how many calls it
// makes; Engine's methods are conveniences that pin the current
// snapshot per call.
type Snapshot struct {
	src graph.Source
	g   *graph.Graph // non-nil when in-memory
	db  *store.DB    // non-nil when disk-backed

	fileIDByPath map[string]int64
	fileNodeByID map[int64]graph.NodeID

	epoch int64
	last  *UpdateSummary

	stats *statsCache
	gs    *gstatsCache
}

// statsCache computes graph metrics at most once per snapshot.
type statsCache struct {
	once sync.Once
	m    graph.Metrics
}

// gstatsCache computes (or adopts preloaded) planner statistics at most
// once per snapshot. st may be pre-seeded from the store directory's
// gstats.json, in which case the once body keeps it.
type gstatsCache struct {
	once sync.Once
	st   *gstats.Stats
}

func newSnapshot(src graph.Source, g *graph.Graph, db *store.DB) *Snapshot {
	s := &Snapshot{src: src, g: g, db: db, stats: &statsCache{}, gs: &gstatsCache{}}
	s.buildFileMaps()
	return s
}

// Engine is an opened Frappé database. It wraps either a freshly
// extracted in-memory graph or a disk-backed store, published as an
// atomically swappable Snapshot.
type Engine struct {
	snap atomic.Pointer[Snapshot]

	// QueryLimits bounds every Query call (zero fields = unlimited).
	// Long-lived servers set row/step budgets so one runaway expansion
	// fails fast with query.ErrBudgetExceeded instead of eating memory.
	// Set at startup, before the engine serves concurrent traffic.
	QueryLimits query.Limits

	// qc, when non-nil, caches parsed plans and finished result tables
	// and coalesces concurrent identical queries (singleflight). Set via
	// SetQueryCache at startup, before the engine serves concurrent
	// traffic; every snapshot swap refills the hot results for the new
	// snapshot and drops the rest (see publish).
	qc *qcache.Cache

	// updateMu serialises update application (plan → extract → persist →
	// swap); queries never take it.
	updateMu sync.Mutex

	// retired holds disk-backed stores replaced by a swap. They stay
	// open until Close because queries may still hold their snapshot.
	mu      sync.Mutex
	retired []*store.DB
}

func newEngine(s *Snapshot) *Engine {
	e := &Engine{}
	e.snap.Store(s)
	return e
}

// Options tune an engine beyond the defaults: extraction parallelism
// for engines built by indexing, and page-cache geometry for engines
// opened over a store directory.
type Options struct {
	// Jobs bounds frontend parallelism when the engine extracts (see
	// extract.Options.Jobs: 0/1 serial, n>1 workers, negative = one per
	// CPU). Non-zero values override extract.Options.Jobs.
	Jobs int
	// Store tunes the page cache (PageSize, CachePages, CacheShards) of
	// disk-backed engines.
	Store store.Options
}

// Index runs the extractor over a build and returns an in-memory engine.
func Index(build extract.Build, opts extract.Options) (*Engine, []error, error) {
	return IndexOptions(build, opts, Options{})
}

// IndexOptions is Index with engine options; opt.Jobs, when non-zero,
// sets the extraction fan-out.
func IndexOptions(build extract.Build, opts extract.Options, opt Options) (*Engine, []error, error) {
	if opt.Jobs != 0 {
		opts.Jobs = opt.Jobs
	}
	res, err := extract.Run(build, opts)
	if err != nil {
		return nil, nil, err
	}
	e := fromGraph(res.Graph)
	return e, res.Errors, nil
}

// FromGraph wraps an existing extracted graph.
func FromGraph(g *graph.Graph) *Engine { return fromGraph(g) }

func fromGraph(g *graph.Graph) *Engine {
	return newEngine(newSnapshot(g, g, nil))
}

// Open opens a previously saved Frappé store directory. The store
// signals corruption by panicking with a wrapped error (graph.Source has
// no error returns); the file-map scan touches every node, so convert
// such panics into ordinary errors here rather than crashing the caller.
func Open(dir string) (*Engine, error) { return OpenOptions(dir, Options{}) }

// OpenOptions is Open with explicit page-cache settings (opt.Store).
// Before touching any store file it runs startup recovery: a commit left
// unfinished by a crashed process is rolled forward (post-update state)
// or discarded (pre-update state), and files a roll-forward renamed into
// place are re-verified against their checksums so page caches never
// warm up from bad bytes.
func OpenOptions(dir string, opt Options) (eng *Engine, err error) {
	rec, err := atomicfile.Recover(dir)
	if err != nil {
		return nil, fmt.Errorf("core: recovering %s: %w", dir, err)
	}
	if rec.Repaired() {
		log.Printf("core: startup recovery in %s: %s", dir, rec)
		if verrs := store.VerifyFiles(dir, rec.RenamedFiles); len(verrs) > 0 {
			return nil, fmt.Errorf("core: %s failed verification after roll-forward: %w", dir, verrs[0])
		}
	}
	db, err := store.OpenOptions(dir, opt.Store)
	if err != nil {
		return nil, err
	}
	defer func() {
		if r := recover(); r != nil {
			db.Close()
			e, ok := r.(error)
			if !ok {
				panic(r)
			}
			eng, err = nil, fmt.Errorf("core: opening %s: %w", dir, e)
		}
	}()
	snap := newSnapshot(db, nil, db)
	// Planner statistics persisted alongside the store (gstats.json) are
	// adopted as-is, saving the full-graph collection pass on startup.
	// Absence or corruption is not an error: the first query that needs
	// them collects from the live graph instead.
	if st, ok, err := gstats.Load(dir); err == nil && ok {
		snap.gs.st = st
	}
	return newEngine(snap), nil
}

// Snapshot pins the engine's current state. Callers making several
// dependent reads (a server request, a report) should grab one snapshot
// and issue every read through it, so a concurrent update cannot change
// the graph out from under them mid-request.
func (e *Engine) Snapshot() *Snapshot { return e.snap.Load() }

// SetEpoch stamps the live snapshot with an epoch and last-update
// summary (used at startup, when an opened store carries update
// history). Call before the engine serves concurrent traffic.
func (e *Engine) SetEpoch(epoch int64, last *UpdateSummary) {
	old := e.snap.Load()
	next := &Snapshot{
		src:          old.src,
		g:            old.g,
		db:           old.db,
		fileIDByPath: old.fileIDByPath,
		fileNodeByID: old.fileNodeByID,
		epoch:        epoch,
		last:         last,
		stats:        old.stats,
		gs:           old.gs,
	}
	e.snap.Store(next)
	mEpochGauge.Set(epoch)
	if e.qc != nil {
		e.qc.Invalidate()
	}
}

// Swap publishes g as the live snapshot at the given epoch. In-flight
// queries holding the previous snapshot finish on it; new reads see g.
// The previous snapshot's disk store (if any) is retired, not closed —
// it may still back pinned snapshots until Close.
func (e *Engine) Swap(g *graph.Graph, epoch int64, last *UpdateSummary) {
	e.publish(newSnapshot(g, g, nil), epoch, last, time.Now())
}

// SwapSource is Swap for a source the caller opened itself, such as a
// store reopened after persisting an update. From then on the engine
// owns src: a disk store is retired when superseded and closed by Close.
func (e *Engine) SwapSource(src graph.Source, epoch int64, last *UpdateSummary) {
	db, _ := src.(*store.DB)
	e.publish(newSnapshot(src, nil, db), epoch, last, time.Now())
}

// minRefillBudget is the least time a publish may spend refilling the
// query cache, however fast the update before it was.
const minRefillBudget = 250 * time.Millisecond

// publish makes next the live snapshot. Everything a reader of next
// would otherwise pay for first happens before the swap: the planner
// statistics are computed, and with a query cache installed, the
// results hit during the outgoing epoch are re-executed against next
// and stored under next's epoch. After the swap the other epochs'
// results are dropped. A swap that reuses the epoch refills nothing and
// drops every result, since old and new entries would share keys.
//
// The refill may take as long as everything since start (the update
// that produced next) took, or minRefillBudget if that is longer, so
// the time an edit takes to become visible at most about doubles
// however many results are hot. It refills the most recently used
// results first; those it has no time for are executed by their first
// readers. Returns the time spent refilling.
func (e *Engine) publish(next *Snapshot, epoch int64, last *UpdateSummary, start time.Time) (refill time.Duration) {
	next.epoch = epoch
	next.last = last
	next.GraphStats()
	if prev := e.snap.Load(); e.qc != nil && prev != nil && prev.epoch != epoch {
		t := time.Now()
		e.refill(prev.epoch, next, max(t.Sub(start), minRefillBudget))
		refill = time.Since(t)
	}
	old := e.snap.Swap(next)
	mSwaps.Inc()
	mEpochGauge.Set(epoch)
	if e.qc != nil {
		if old != nil && old.epoch == epoch {
			e.qc.Invalidate()
		} else {
			e.qc.Retain(epoch)
		}
	}
	if old != nil && old.db != nil {
		e.mu.Lock()
		e.retired = append(e.retired, old.db)
		e.mu.Unlock()
	}
	return refill
}

// refill re-executes against next, within budget, the cached results
// hit during epoch from, under the limits each was cached with, and
// stores the successes under next's epoch, so the first readers after
// the swap find the results they were reading already computed. An
// execution still running when the budget runs out is cancelled. A
// failed refill is not cached and does not fail the publish.
func (e *Engine) refill(from int64, next *Snapshot, budget time.Duration) {
	ctx, cancel := context.WithTimeout(context.Background(), budget)
	defer cancel()
	keys := e.qc.Hot(from)
	for i := range keys {
		keys[i].Epoch = next.epoch
	}
	e.qc.Refill(ctx, keys, func(ctx context.Context, k qcache.Key) (*query.Result, error) {
		p, err := e.planFor(ctx, e.qc, next, k.Text)
		if err != nil {
			return nil, err
		}
		return p.Execute(ctx, next.Source(), k.Limits)
	})
}

func millis(d time.Duration) float64 { return float64(d) / float64(time.Millisecond) }

// UpdateWith applies one update under the engine's update lock. fn
// receives the live graph and returns the replacement graph, its epoch,
// and a summary; fn must persist everything it needs (store files,
// session state, journal) before returning, so nothing unpersisted is
// ever published. A nil returned graph means no-op: nothing is swapped
// and the epoch does not advance. Reports whether a swap happened.
func (e *Engine) UpdateWith(fn func(old graph.Source) (*graph.Graph, int64, *UpdateSummary, error)) (bool, error) {
	e.updateMu.Lock()
	defer e.updateMu.Unlock()
	start := time.Now()
	defer func() { mUpdateDuration.Observe(millis(time.Since(start))) }()
	g, epoch, last, err := fn(e.Snapshot().Source())
	if err != nil {
		mUpdatesFailed.Inc()
		return false, err
	}
	if g == nil {
		mUpdatesNoop.Inc()
		return false, nil
	}
	t := time.Now()
	refill := e.publish(newSnapshot(g, g, nil), epoch, last, start)
	mPhaseRefill.Observe(millis(refill))
	mPhasePublish.Observe(millis(time.Since(t) - refill))
	mUpdatesApplied.Inc()
	return true, nil
}

// Save persists an in-memory engine to dir (Neo4j-style store files)
// with the snapshot's graph statistics in the same crash-consistent
// commit, as an index or update commit stages them, so the store opens
// with its planner statistics instead of scanning for them.
func (e *Engine) Save(dir string) error {
	s := e.Snapshot()
	if s.g == nil {
		return fmt.Errorf("core: engine is disk-backed; nothing to save")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := atomicfile.NewCommit(dir)
	if err != nil {
		return err
	}
	defer c.Abort()
	if err := store.StageTo(c, s.g); err != nil {
		return err
	}
	if st := s.GraphStats(); st != nil {
		if err := gstats.Stage(c, st); err != nil {
			return err
		}
	}
	return c.Publish()
}

// Close releases resources for disk-backed engines, including stores
// retired by snapshot swaps.
func (e *Engine) Close() error {
	var first error
	e.mu.Lock()
	retired := e.retired
	e.retired = nil
	e.mu.Unlock()
	for _, db := range retired {
		if err := db.Close(); err != nil && first == nil {
			first = err
		}
	}
	if s := e.Snapshot(); s.db != nil {
		if err := s.db.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// Source exposes the current snapshot's graph for traversal and query
// use. Prefer Snapshot when making multiple dependent reads.
func (e *Engine) Source() graph.Source { return e.Snapshot().Source() }

// Source exposes the snapshot's graph.
func (e *Snapshot) Source() graph.Source { return e.src }

// Graph returns the snapshot's in-memory graph (nil when disk-backed).
func (e *Snapshot) Graph() *graph.Graph { return e.g }

// Epoch reports which update generation this snapshot represents.
func (e *Snapshot) Epoch() int64 { return e.epoch }

// LastUpdate returns the summary of the update that produced this
// snapshot (nil for the initial state).
func (e *Snapshot) LastUpdate() *UpdateSummary { return e.last }

// Epoch reports the live snapshot's update generation.
func (e *Engine) Epoch() int64 { return e.Snapshot().Epoch() }

// LastUpdate reports the live snapshot's last-update summary (nil when
// no update has been applied or recorded).
func (e *Engine) LastUpdate() *UpdateSummary { return e.Snapshot().LastUpdate() }

// DropCaches empties the page caches of a disk-backed engine (cold-run
// benchmarking); it is a no-op for in-memory engines.
func (e *Engine) DropCaches() {
	if s := e.Snapshot(); s.db != nil {
		s.db.DropCaches()
	}
}

// Degraded reports whether the live snapshot's store has quarantined
// pages: corruption was detected at read time and the engine is serving
// every query that avoids the bad pages while failing the ones that need
// them. Always false for in-memory engines.
func (e *Engine) Degraded() bool {
	if s := e.Snapshot(); s.db != nil {
		return s.db.Degraded()
	}
	return false
}

// QuarantinedPages lists quarantined page numbers per store file (empty
// map when healthy or in-memory).
func (e *Engine) QuarantinedPages() map[string][]int64 {
	if s := e.Snapshot(); s.db != nil {
		return s.db.QuarantinedPages()
	}
	return map[string][]int64{}
}

// Heal retries every quarantined page of the live snapshot's store,
// returning (healed, remaining). Pages recover only if the on-disk bytes
// were repaired; the admin re-verify endpoint exposes this.
func (e *Engine) Heal() (healed, remaining int) {
	if s := e.Snapshot(); s.db != nil {
		return s.db.Heal()
	}
	return 0, 0
}

// buildFileMaps indexes file nodes by path and FILE_ID.
func (e *Snapshot) buildFileMaps() {
	e.fileIDByPath = map[string]int64{}
	e.fileNodeByID = map[int64]graph.NodeID{}
	n := e.src.NodeCount()
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		if e.src.NodeType(id) != model.NodeFile {
			continue
		}
		p, _ := e.src.NodeProp(id, model.PropName)
		fid, ok := e.src.NodeProp(id, "FILE_ID")
		if !ok {
			continue
		}
		e.fileIDByPath[p.AsString()] = fid.AsInt()
		e.fileNodeByID[fid.AsInt()] = id
	}
}

// FileNodeByID resolves a USE_FILE_ID/NAME_FILE_ID value to a file node.
func (e *Snapshot) FileNodeByID(fid int64) (graph.NodeID, bool) {
	n, ok := e.fileNodeByID[fid]
	return n, ok
}

// FileNodeByID resolves a file ID against the live snapshot.
func (e *Engine) FileNodeByID(fid int64) (graph.NodeID, bool) {
	return e.Snapshot().FileNodeByID(fid)
}

// FileIDOf returns the extraction FILE_ID recorded for a path, for
// building position-anchored queries like the paper's Figure 4.
func (e *Snapshot) FileIDOf(path string) (int64, bool) {
	v, ok := e.fileIDByPath[path]
	return v, ok
}

// FileIDOf resolves a path against the live snapshot.
func (e *Engine) FileIDOf(path string) (int64, bool) {
	return e.Snapshot().FileIDOf(path)
}

// GraphStats returns the planner statistics for this snapshot,
// computing them at most once. A snapshot opened from a store directory
// adopts the persisted gstats.json, and a published one has them
// computed before its swap (publish); otherwise the first caller pays
// one full-graph collection pass and everyone after reads the cached
// value.
// Returns nil when collection hit quarantined store pages — statistics
// are advisory cost inputs, and a degraded store must keep serving the
// queries that avoid its bad pages.
func (e *Snapshot) GraphStats() *gstats.Stats {
	e.gs.once.Do(func() {
		if e.gs.st == nil {
			e.gs.st = collectStatsSafe(e.src)
		}
	})
	return e.gs.st
}

// collectStatsSafe degrades corruption-class store panics during the
// statistics scan to nil instead of failing the query that triggered
// the lazy collection. Any other panic propagates.
func collectStatsSafe(src graph.Source) (st *gstats.Stats) {
	defer func() {
		if r := recover(); r != nil {
			err, ok := r.(error)
			if !ok || (!errors.Is(err, store.ErrCorrupt) && !errors.Is(err, store.ErrTruncated)) {
				panic(r)
			}
			st = nil
		}
	}()
	return gstats.Collect(src)
}

// GraphStats returns the live snapshot's planner statistics.
func (e *Engine) GraphStats() *gstats.Stats { return e.Snapshot().GraphStats() }

// Query parses, plans, and runs a Cypher query against the snapshot's
// graph. Planning consults the snapshot's statistics for anchor and
// expansion-order choices and applies the closure rewrite where legal;
// a clause shape the planner does not handle runs without hints, like
// a naive run.
func (e *Snapshot) Query(ctx context.Context, text string, limits query.Limits) (*query.Result, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, err
	}
	t0 := time.Now()
	p := plan.Compile(q, e.GraphStats())
	planSpan(trace.FromContext(ctx), t0, p, false)
	return p.Execute(ctx, e.src, limits)
}

// planSpan records one "plan.compile" span under sp: which rewrites the
// planner took, whether it fell back to a hint-less run, and whether
// the compiled plan came from the generation-keyed cache.
func planSpan(sp *trace.Span, start time.Time, p *plan.Plan, cachedPlan bool) {
	if sp == nil {
		return
	}
	c := sp.ChildSince("plan.compile", start,
		trace.Bool("cachedPlan", cachedPlan),
		trace.Bool("fallback", p.Fallback),
		trace.Int("rewrites", int64(p.Rewrites)),
		trace.Int("generation", p.Generation),
	)
	c.End()
}

// PagerSpan starts page-cache attribution for the traced query in ctx
// against this snapshot's store: the returned func emits one
// "store.pager" span whose attributes are the counter deltas (pages
// faulted, cache hits, bytes, CRC failures) accumulated since the call.
// The counters are process-wide, so under concurrent queries the delta
// over-counts — the span carries approximate=true to say so. No-op (and
// free) for in-memory snapshots or untraced contexts.
func (s *Snapshot) PagerSpan(ctx context.Context) func() {
	sp := trace.FromContext(ctx)
	if sp == nil || s.db == nil {
		return func() {}
	}
	before := s.db.Stats()
	start := time.Now()
	return func() {
		after := s.db.Stats()
		var hits, misses, crc int64
		for name, a := range after {
			b := before[name]
			hits += a.Hits - b.Hits
			misses += a.Misses - b.Misses
			crc += a.ChecksumFailures - b.ChecksumFailures
		}
		c := sp.ChildSince("store.pager", start,
			trace.Int("pagesRead", misses),
			trace.Int("cacheHits", hits),
			trace.Int("bytesRead", misses*int64(s.db.PageSize())),
			trace.Int("checksumFailures", crc),
			trace.Bool("approximate", true),
		)
		c.End()
	}
}

// QueryProfile runs a query with per-operator PROFILE tracing. The
// profile is non-nil even when the query aborts mid-execution (budget,
// timeout), covering the operators completed so far, and carries the
// plan's EXPLAIN rendering.
func (e *Snapshot) QueryProfile(ctx context.Context, text string, limits query.Limits) (*query.Result, *query.Profile, error) {
	q, err := query.Parse(text)
	if err != nil {
		return nil, nil, err
	}
	return plan.Compile(q, e.GraphStats()).ExecuteProfile(ctx, e.src, limits)
}

// QueryProfile runs a query with PROFILE tracing under the engine's
// QueryLimits.
func (e *Engine) QueryProfile(ctx context.Context, text string) (*query.Result, *query.Profile, error) {
	return e.Snapshot().QueryProfile(ctx, text, e.QueryLimits)
}

// SetQueryCache installs (or, with nil, removes) the engine's query
// cache. Call at startup, before the engine serves concurrent traffic —
// the field is read without synchronisation on the query hot path.
func (e *Engine) SetQueryCache(c *qcache.Cache) { e.qc = c }

// QueryCacheStats snapshots the query-cache counters, nil when no cache
// is installed (surfaced by /api/stats).
func (e *Engine) QueryCacheStats() *qcache.Stats {
	if e.qc == nil {
		return nil
	}
	st := e.qc.Stats()
	return &st
}

// QueryCacheHits reports how many times the given query text has been
// served warm against snapshot s under the engine's current limits.
func (e *Engine) QueryCacheHits(s *Snapshot, text string) int64 {
	if e.qc == nil {
		return 0
	}
	return e.qc.EntryHits(qcache.Key{Epoch: s.Epoch(), Text: text, Limits: e.QueryLimits})
}

// CachedQuery runs text against the pinned snapshot s through the
// engine's query cache: plan reuse, result reuse keyed by
// (epoch, text, limits), and singleflight coalescing of concurrent
// identical queries. With bypass (or no cache installed) it executes
// directly, exactly like Snapshot.Query. Cached results are shared
// between callers — treat them as read-only.
func (e *Engine) CachedQuery(ctx context.Context, s *Snapshot, text string, bypass bool) (res *query.Result, out qcache.Outcome, err error) {
	qc := e.qc
	if eng := trace.FromContext(ctx).Child("engine.query", trace.Int("epoch", s.Epoch())); eng != nil {
		ctx = trace.ContextWith(ctx, eng)
		pager := s.PagerSpan(ctx)
		defer func() {
			pager()
			eng.SetAttr(
				trace.Bool("bypass", bypass || qc == nil),
				trace.Bool("cacheHit", out.Hit),
				trace.Bool("shared", out.Shared))
			if err != nil {
				eng.SetError(err)
				markRetention(eng, err)
			}
			eng.End()
		}()
	}
	if qc == nil || bypass {
		res, err = s.Query(ctx, text, e.QueryLimits)
		return res, qcache.Outcome{}, err
	}
	k := qcache.Key{Epoch: s.Epoch(), Text: text, Limits: e.QueryLimits}
	res, out, err = qc.Do(ctx, k, func() (*query.Result, error) {
		p, perr := e.planFor(ctx, qc, s, text)
		if perr != nil {
			return nil, perr
		}
		return p.Execute(ctx, s.Source(), e.QueryLimits)
	})
	return res, out, err
}

// markRetention forces trace retention for the outcome classes tail
// sampling must never drop: degraded-store reads and budget aborts
// (plain errors already retain via SetError).
func markRetention(sp *trace.Span, err error) {
	switch {
	case errors.Is(err, store.ErrCorrupt) || errors.Is(err, store.ErrTruncated):
		sp.Retain("degraded")
	case errors.Is(err, query.ErrBudgetExceeded):
		sp.Retain("budget")
	}
}

// StreamQuery runs text against the pinned snapshot s as a streaming
// execution: rows arrive through the returned Stream's bounded channel
// (depth <= 0 means query.DefaultStreamDepth) instead of a materialized
// result. Parse and compile errors are returned synchronously so HTTP
// callers can still answer 400 before committing to a streaming
// response; execution errors surface through Stream.Wait.
//
// Cache interaction is deliberately asymmetric: a cached result is
// served by replaying its rows (Outcome.Hit true), but a streamed miss
// executes outside the cache and never inserts — rows leave the process
// as they are produced, and buffering the whole result to cache it
// would undo the bounded-memory point of streaming. Repeated hot
// queries should use CachedQuery; streaming is for results too large to
// hold.
func (e *Engine) StreamQuery(ctx context.Context, s *Snapshot, text string, depth int) (*query.Stream, qcache.Outcome, error) {
	qc := e.qc
	if qc != nil {
		k := qcache.Key{Epoch: s.Epoch(), Text: text, Limits: e.QueryLimits}
		if res, ok := qc.Get(k); ok {
			return query.ReplayStream(ctx, res, depth), qcache.Outcome{Hit: true}, nil
		}
	}
	p, err := e.planFor(ctx, qc, s, text)
	if err != nil {
		return nil, qcache.Outcome{}, err
	}
	return p.Stream(ctx, s.Source(), e.QueryLimits, depth), qcache.Outcome{}, nil
}

// planFor returns the compiled plan for text against snapshot s,
// serving it from the query cache's generation-keyed compiled-plan slot
// when the cache holds one built against s's current statistics. qc may
// be nil (no cache installed): the plan is then built from scratch.
func (e *Engine) planFor(ctx context.Context, qc *qcache.Cache, s *Snapshot, text string) (*plan.Plan, error) {
	st := s.GraphStats()
	t0 := time.Now()
	if qc == nil {
		q, err := query.Parse(text)
		if err != nil {
			return nil, err
		}
		p := plan.Compile(q, st)
		planSpan(trace.FromContext(ctx), t0, p, false)
		return p, nil
	}
	q, err := qc.Plan(text)
	if err != nil {
		return nil, err
	}
	var gen int64
	if st != nil {
		gen = st.Generation
	}
	built := false
	v, err := qc.CompiledPlan(text, gen, func() (any, error) {
		built = true
		return plan.Compile(q, st), nil
	})
	if err != nil {
		return nil, err
	}
	p := v.(*plan.Plan)
	planSpan(trace.FromContext(ctx), t0, p, !built)
	return p, nil
}

// ExplainQuery compiles text against the live snapshot's statistics and
// returns the plan's EXPLAIN rendering without executing anything.
func (e *Engine) ExplainQuery(text string) (string, error) {
	p, err := e.planFor(context.Background(), e.qc, e.Snapshot(), text)
	if err != nil {
		return "", err
	}
	return p.Explain(), nil
}

// Query parses and runs a Cypher query against the engine's live graph,
// under the engine's QueryLimits and through the query cache when one
// is installed.
func (e *Engine) Query(ctx context.Context, text string) (*query.Result, error) {
	res, _, err := e.CachedQuery(ctx, e.Snapshot(), text, false)
	return res, err
}

// Symbol is a materialised view of a graph node for API consumers.
type Symbol struct {
	ID        graph.NodeID
	Type      model.NodeType
	ShortName string
	Name      string
	LongName  string
	File      string // defining file path ("" if not recorded)
	Line      int
	Col       int
}

// Symbol materialises a node.
func (e *Snapshot) Symbol(id graph.NodeID) Symbol {
	s := Symbol{ID: id, Type: e.src.NodeType(id)}
	if v, ok := e.src.NodeProp(id, model.PropShortName); ok {
		s.ShortName = v.AsString()
	}
	if v, ok := e.src.NodeProp(id, model.PropName); ok {
		s.Name = v.AsString()
	}
	if v, ok := e.src.NodeProp(id, model.PropLongName); ok {
		s.LongName = v.AsString()
	}
	// Definition location: the incoming file_contains edge.
	for _, eid := range e.src.In(id) {
		from, _, t := e.src.EdgeEnds(eid)
		if t != model.EdgeFileContains {
			continue
		}
		if v, ok := e.src.NodeProp(from, model.PropName); ok {
			s.File = v.AsString()
		}
		if v, ok := e.src.EdgeProp(eid, model.PropNameStartLine); ok {
			s.Line = int(v.AsInt())
		}
		if v, ok := e.src.EdgeProp(eid, model.PropNameStartCol); ok {
			s.Col = int(v.AsInt())
		}
		break
	}
	return s
}

// Symbol materialises a node from the live snapshot.
func (e *Engine) Symbol(id graph.NodeID) Symbol { return e.Snapshot().Symbol(id) }

// Symbols materialises a node list.
func (e *Snapshot) Symbols(ids []graph.NodeID) []Symbol {
	out := make([]Symbol, len(ids))
	for i, id := range ids {
		out[i] = e.Symbol(id)
	}
	return out
}

// Symbols materialises a node list from the live snapshot.
func (e *Engine) Symbols(ids []graph.NodeID) []Symbol { return e.Snapshot().Symbols(ids) }

// --- §4.1 code search ---

// SearchOptions constrain a code search.
type SearchOptions struct {
	// Pattern matches SHORT_NAME; '*' and '?' wildcards allowed.
	Pattern string
	// Types restricts results to these node types (nil = any).
	Types []model.NodeType
	// Label restricts to a grouped label (symbol, type, container...).
	Label string
	// Module restricts results to entities reachable from the named
	// module via compiled_from/linked_from, as in the paper's Figure 3.
	Module string
	// Dir restricts results to entities under the directory path.
	Dir string
	// Limit caps the result count (0 = unlimited).
	Limit int
}

// Search implements the paper's code-search use case (§4.1).
func (e *Snapshot) Search(ctx context.Context, opts SearchOptions) ([]Symbol, error) {
	if opts.Pattern == "" {
		return nil, fmt.Errorf("core: empty search pattern")
	}
	ids, err := e.src.Lookup("short_name: \"" + opts.Pattern + "\"")
	if err != nil {
		return nil, err
	}

	var typeFilter map[model.NodeType]bool
	if len(opts.Types) > 0 {
		typeFilter = map[model.NodeType]bool{}
		for _, t := range opts.Types {
			typeFilter[t] = true
		}
	}

	var fileSet map[graph.NodeID]bool
	if opts.Module != "" {
		fileSet, err = e.moduleFiles(opts.Module)
		if err != nil {
			return nil, err
		}
	}
	if opts.Dir != "" {
		dirFiles, err := e.dirFiles(opts.Dir)
		if err != nil {
			return nil, err
		}
		if fileSet == nil {
			fileSet = dirFiles
		} else {
			for f := range fileSet {
				if !dirFiles[f] {
					delete(fileSet, f)
				}
			}
		}
	}

	var out []Symbol
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		if typeFilter != nil && !typeFilter[e.src.NodeType(id)] {
			continue
		}
		if opts.Label != "" && !e.src.NodeHasLabel(id, opts.Label) {
			continue
		}
		if fileSet != nil && !e.containedInAny(id, fileSet) {
			continue
		}
		out = append(out, e.Symbol(id))
		if opts.Limit > 0 && len(out) >= opts.Limit {
			break
		}
	}
	return out, nil
}

// Search runs a code search against the live snapshot.
func (e *Engine) Search(ctx context.Context, opts SearchOptions) ([]Symbol, error) {
	return e.Snapshot().Search(ctx, opts)
}

// moduleFiles computes the transitive closure of compiled_from and
// linked_from edges from the named module (Figure 3's first MATCH).
func (e *Snapshot) moduleFiles(name string) (map[graph.NodeID]bool, error) {
	mods, err := e.src.Lookup("short_name: \"" + name + "\"")
	if err != nil {
		return nil, err
	}
	files := map[graph.NodeID]bool{}
	for _, m := range mods {
		if e.src.NodeType(m) != model.NodeModule {
			continue
		}
		reach := traversal.TransitiveClosure(e.src, m, traversal.Options{
			Direction: traversal.Out,
			Types:     traversal.Types(model.EdgeCompiledFrom, model.EdgeLinkedFrom, model.EdgeLinkedFromLib),
		})
		for _, f := range reach {
			if e.src.NodeType(f) == model.NodeFile {
				files[f] = true
			}
		}
	}
	return files, nil
}

// dirFiles collects files under a directory path via dir_contains.
func (e *Snapshot) dirFiles(dir string) (map[graph.NodeID]bool, error) {
	var dn graph.NodeID = graph.InvalidID
	n := e.src.NodeCount()
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		if e.src.NodeType(id) != model.NodeDirectory {
			continue
		}
		if v, ok := e.src.NodeProp(id, model.PropName); ok && v.AsString() == dir {
			dn = id
			break
		}
	}
	if dn == graph.InvalidID {
		return nil, fmt.Errorf("core: no directory %q", dir)
	}
	files := map[graph.NodeID]bool{}
	for _, f := range traversal.TransitiveClosure(e.src, dn, traversal.Options{
		Direction: traversal.Out,
		Types:     traversal.Types(model.EdgeDirContains),
	}) {
		if e.src.NodeType(f) == model.NodeFile {
			files[f] = true
		}
	}
	return files, nil
}

func (e *Snapshot) containedInAny(id graph.NodeID, files map[graph.NodeID]bool) bool {
	for _, eid := range e.src.In(id) {
		from, _, t := e.src.EdgeEnds(eid)
		if t == model.EdgeFileContains && files[from] {
			return true
		}
	}
	return false
}

// --- §4.2 cross referencing ---

// GoToDefinition resolves the symbol named name referenced at the given
// source position to its definition (the paper's Figure 4 query, plus
// declaration→definition resolution).
func (e *Snapshot) GoToDefinition(ctx context.Context, name, file string, line, col int) (Symbol, bool, error) {
	fid, ok := e.fileIDByPath[file]
	if !ok {
		return Symbol{}, false, fmt.Errorf("core: unknown file %q", file)
	}
	ids, err := e.src.Lookup("short_name: \"" + name + "\"")
	if err != nil {
		return Symbol{}, false, err
	}
	for _, id := range ids {
		if err := ctx.Err(); err != nil {
			return Symbol{}, false, err
		}
		for _, eid := range e.src.In(id) {
			if f, ok := e.src.EdgeProp(eid, model.PropNameFileID); !ok || f.AsInt() != fid {
				continue
			}
			if l, ok := e.src.EdgeProp(eid, model.PropNameStartLine); !ok || l.AsInt() != int64(line) {
				continue
			}
			if c, ok := e.src.EdgeProp(eid, model.PropNameStartCol); !ok || c.AsInt() != int64(col) {
				continue
			}
			return e.Symbol(e.resolveToDefinition(id)), true, nil
		}
	}
	return Symbol{}, false, nil
}

// GoToDefinition resolves against the live snapshot.
func (e *Engine) GoToDefinition(ctx context.Context, name, file string, line, col int) (Symbol, bool, error) {
	return e.Snapshot().GoToDefinition(ctx, name, file, line, col)
}

// resolveToDefinition follows declares/link_matches from a declaration.
func (e *Snapshot) resolveToDefinition(id graph.NodeID) graph.NodeID {
	if !model.IsDecl(e.src.NodeType(id)) {
		return id
	}
	for _, eid := range e.src.Out(id) {
		_, to, t := e.src.EdgeEnds(eid)
		if t == model.EdgeDeclares || t == model.EdgeLinkMatches {
			return to
		}
	}
	return id
}

// Reference is one use of a symbol.
type Reference struct {
	From Symbol
	Kind model.EdgeType
	File string
	Line int
	Col  int
}

// FindReferences lists every reference to the symbol (and to its
// declarations), the paper's find-references action.
func (e *Snapshot) FindReferences(ctx context.Context, id graph.NodeID) ([]Reference, error) {
	targets := []graph.NodeID{id}
	// Include declaration nodes that resolve to this definition.
	for _, eid := range e.src.In(id) {
		from, _, t := e.src.EdgeEnds(eid)
		if t == model.EdgeDeclares || t == model.EdgeLinkMatches {
			targets = append(targets, from)
		}
	}
	var out []Reference
	for _, target := range targets {
		if err := ctx.Err(); err != nil {
			return nil, err
		}
		for _, eid := range e.src.In(target) {
			from, _, t := e.src.EdgeEnds(eid)
			if !model.ReferenceEdges[t] || t == model.EdgeIsaType {
				continue
			}
			ref := Reference{From: e.Symbol(from), Kind: t}
			if v, ok := e.src.EdgeProp(eid, model.PropUseFileID); ok {
				if fn, ok := e.fileNodeByID[v.AsInt()]; ok {
					if p, ok := e.src.NodeProp(fn, model.PropName); ok {
						ref.File = p.AsString()
					}
				}
			}
			if v, ok := e.src.EdgeProp(eid, model.PropUseStartLine); ok {
				ref.Line = int(v.AsInt())
			}
			if v, ok := e.src.EdgeProp(eid, model.PropUseStartCol); ok {
				ref.Col = int(v.AsInt())
			}
			out = append(out, ref)
		}
	}
	return out, nil
}

// FindReferences lists references against the live snapshot.
func (e *Engine) FindReferences(ctx context.Context, id graph.NodeID) ([]Reference, error) {
	return e.Snapshot().FindReferences(ctx, id)
}

// --- §4.4 code comprehension ---

// BackwardSlice returns every function the seed function transitively
// calls (Figure 6: the code that can alter the seed's behaviour).
func (e *Snapshot) BackwardSlice(seed graph.NodeID, maxDepth int) []Symbol {
	syms, _ := e.BackwardSliceCtx(context.Background(), seed, maxDepth)
	return syms
}

// BackwardSliceCtx is BackwardSlice under a deadline: an expired context
// aborts the walk with the context's error instead of returning a
// silently truncated slice.
func (e *Snapshot) BackwardSliceCtx(ctx context.Context, seed graph.NodeID, maxDepth int) ([]Symbol, error) {
	ids, err := traversal.TransitiveClosureCtx(ctx, e.src, seed, traversal.Options{
		Direction: traversal.Out,
		Types:     traversal.Types(model.EdgeCalls),
		MaxDepth:  maxDepth,
	})
	if err != nil {
		return nil, err
	}
	return e.Symbols(ids), nil
}

// BackwardSlice slices against the live snapshot.
func (e *Engine) BackwardSlice(seed graph.NodeID, maxDepth int) []Symbol {
	return e.Snapshot().BackwardSlice(seed, maxDepth)
}

// ForwardSlice returns every function that transitively calls the seed
// (the code affected if the seed changes).
func (e *Snapshot) ForwardSlice(seed graph.NodeID, maxDepth int) []Symbol {
	syms, _ := e.ForwardSliceCtx(context.Background(), seed, maxDepth)
	return syms
}

// ForwardSliceCtx is ForwardSlice under a deadline; see BackwardSliceCtx.
func (e *Snapshot) ForwardSliceCtx(ctx context.Context, seed graph.NodeID, maxDepth int) ([]Symbol, error) {
	ids, err := traversal.TransitiveClosureCtx(ctx, e.src, seed, traversal.Options{
		Direction: traversal.In,
		Types:     traversal.Types(model.EdgeCalls),
		MaxDepth:  maxDepth,
	})
	if err != nil {
		return nil, err
	}
	return e.Symbols(ids), nil
}

// ForwardSlice slices against the live snapshot.
func (e *Engine) ForwardSlice(seed graph.NodeID, maxDepth int) []Symbol {
	return e.Snapshot().ForwardSlice(seed, maxDepth)
}

// MacroImpact answers "how much code could be affected if I change this
// macro?": the functions and files that expand or interrogate it, plus
// the transitive callers of those functions.
func (e *Snapshot) MacroImpact(macro graph.NodeID) []Symbol {
	direct := map[graph.NodeID]bool{}
	for _, eid := range e.src.In(macro) {
		from, _, t := e.src.EdgeEnds(eid)
		if t == model.EdgeExpandsMacro || t == model.EdgeInterrogatesMacro {
			direct[from] = true
		}
	}
	seen := map[graph.NodeID]bool{}
	var out []graph.NodeID
	for d := range direct {
		if !seen[d] {
			seen[d] = true
			out = append(out, d)
		}
		for _, up := range traversal.TransitiveClosure(e.src, d, traversal.Options{
			Direction: traversal.In,
			Types:     traversal.Types(model.EdgeCalls),
		}) {
			if !seen[up] {
				seen[up] = true
				out = append(out, up)
			}
		}
	}
	return e.Symbols(out)
}

// MacroImpact computes impact against the live snapshot.
func (e *Engine) MacroImpact(macro graph.NodeID) []Symbol {
	return e.Snapshot().MacroImpact(macro)
}

// IncludeImpact returns every file that transitively includes the given
// file — the rebuild set when a header changes.
func (e *Snapshot) IncludeImpact(file graph.NodeID) []Symbol {
	return e.Symbols(traversal.TransitiveClosure(e.src, file, traversal.Options{
		Direction: traversal.In,
		Types:     traversal.Types(model.EdgeIncludes),
	}))
}

// IncludeImpact computes impact against the live snapshot.
func (e *Engine) IncludeImpact(file graph.NodeID) []Symbol {
	return e.Snapshot().IncludeImpact(file)
}

// CallPath finds a shortest calls path between two functions — the
// "how might execution reach this code" exploration of §4.4.
func (e *Snapshot) CallPath(from, to graph.NodeID) (traversal.Path, bool) {
	return traversal.ShortestPath(e.src, from, to, traversal.Options{
		Direction: traversal.Out,
		Types:     traversal.Types(model.EdgeCalls),
	})
}

// CallPath finds a path against the live snapshot.
func (e *Engine) CallPath(from, to graph.NodeID) (traversal.Path, bool) {
	return e.Snapshot().CallPath(from, to)
}

// LookupNamed finds nodes by SHORT_NAME (optionally filtered by type),
// a convenience for examples and the CLI.
func (e *Snapshot) LookupNamed(name string, typ model.NodeType) ([]graph.NodeID, error) {
	q := "short_name: \"" + name + "\""
	if typ != "" {
		q = "TYPE: " + string(typ) + " AND " + q
	}
	return e.src.Lookup(q)
}

// LookupNamed looks up against the live snapshot.
func (e *Engine) LookupNamed(name string, typ model.NodeType) ([]graph.NodeID, error) {
	return e.Snapshot().LookupNamed(name, typ)
}

// MustLookupOne returns the unique node with the given name/type or an
// error naming the ambiguity.
func (e *Snapshot) MustLookupOne(name string, typ model.NodeType) (graph.NodeID, error) {
	ids, err := e.LookupNamed(name, typ)
	if err != nil {
		return graph.InvalidID, err
	}
	switch len(ids) {
	case 0:
		return graph.InvalidID, fmt.Errorf("core: no %s named %q", orAny(typ), name)
	case 1:
		return ids[0], nil
	}
	return graph.InvalidID, fmt.Errorf("core: %d nodes named %q", len(ids), name)
}

// MustLookupOne looks up against the live snapshot.
func (e *Engine) MustLookupOne(name string, typ model.NodeType) (graph.NodeID, error) {
	return e.Snapshot().MustLookupOne(name, typ)
}

func orAny(t model.NodeType) string {
	if t == "" {
		return "node"
	}
	return string(t)
}

// Stats bundles the graph metrics of the paper's Table 3, computed at
// most once per snapshot: the graph is immutable once published, so the
// first call caches and every later call (stats endpoints poll this) is
// a map-free read.
func (e *Snapshot) Stats() graph.Metrics {
	e.stats.once.Do(func() { e.stats.m = graph.ComputeMetrics(e.src) })
	return e.stats.m
}

// Stats returns the live snapshot's (cached) metrics.
func (e *Engine) Stats() graph.Metrics { return e.Snapshot().Stats() }

// FormatSymbol renders a symbol for terminal output.
func FormatSymbol(s Symbol) string {
	loc := ""
	if s.File != "" {
		loc = fmt.Sprintf("  %s:%d:%d", s.File, s.Line, s.Col)
	}
	name := s.ShortName
	if s.LongName != "" {
		name = s.LongName
	}
	return fmt.Sprintf("%-14s %s%s", s.Type, name, loc)
}

// FilePathOf resolves a FILE_ID to its path, "" when unknown.
func (e *Snapshot) FilePathOf(fid cpp.FileID) string {
	if n, ok := e.fileNodeByID[int64(fid)]; ok {
		if v, ok := e.src.NodeProp(n, model.PropName); ok {
			return v.AsString()
		}
	}
	return ""
}

// FilePathOf resolves against the live snapshot.
func (e *Engine) FilePathOf(fid cpp.FileID) string { return e.Snapshot().FilePathOf(fid) }

// DirOf trims a path to its directory for display grouping.
func DirOf(p string) string {
	if i := strings.LastIndexByte(p, '/'); i >= 0 {
		return p[:i]
	}
	return ""
}
