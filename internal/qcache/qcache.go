// Package qcache caches query-layer work across requests. The paper's
// evaluation (Tables 5–6) turns on the cold/warm distinction for
// repeated dependency queries; this package is what makes the warm path
// stop being bounded by executor work at all. It layers three
// mechanisms, cheapest first:
//
//  1. A plan cache: an LRU of parsed queries keyed by query text, so a
//     repeated query skips the lexer and parser entirely. Parsing is
//     independent of the snapshot and of resource limits, so one plan
//     serves every epoch and every Limits setting. Plans are read-only
//     during execution and safe to share between concurrent queries.
//  2. A result cache: an LRU of finished result tables keyed by
//     (snapshot epoch, canonical query text, resource limits), bounded
//     by an estimated byte budget. The limits belong in the key: a
//     query first run under a tight row budget must not poison the
//     cache for a later run with looser limits, and a cached success
//     must never mask the budget error a tighter rerun should produce.
//  3. Singleflight deduplication: N concurrent identical queries (the
//     burst shape agent workloads and dashboard reloads produce)
//     execute once; followers block on the leader's call and share its
//     result. Under the server's load-shed limiter this turns a
//     thundering herd into one executor slot.
//
// Cached *query.Result values are shared between callers and with the
// cache itself: treat them as immutable. Every consumer in this
// repository (formatting, JSON encoding, row counting) only reads.
//
// Invalidation follows snapshot swaps. Before a swap to a new epoch
// the engine refills the cache: each result hit during the outgoing
// epoch (Hot) is re-executed against the incoming snapshot and stored
// under the new epoch (Refill); after the swap, Retain drops every
// other epoch's entries. A swap that reuses the epoch cannot tell old
// entries from new ones by key, so it calls Invalidate and drops
// everything. Either way the generation moves on, so an insert from a
// query that started before the swap is dropped, and rows from a
// retired graph are never served.
package qcache

import (
	"container/list"
	"context"
	"fmt"
	"sync"
	"sync/atomic"

	"frappe/internal/graph"
	"frappe/internal/obs/trace"
	"frappe/internal/query"
)

// Defaults for Config zero values: a 64 MB result budget and entry
// counts sized for interactive traffic.
const (
	DefaultMaxBytes   = 64 << 20
	DefaultMaxEntries = 4096
	DefaultMaxPlans   = 1024
)

// Config sizes a cache. Zero fields take the defaults above.
type Config struct {
	// MaxBytes bounds the estimated memory held by cached results.
	MaxBytes int64
	// MaxEntries bounds the number of cached results.
	MaxEntries int
	// MaxPlans bounds the number of cached parsed queries.
	MaxPlans int
}

// Key identifies one cacheable execution: the graph state (epoch), the
// query text, and the resource limits it ran under. Limits are part of
// the identity — see the package comment.
type Key struct {
	Epoch  int64
	Text   string
	Limits query.Limits
}

// Outcome reports how a Do call was served.
type Outcome struct {
	// Hit: served from the result cache without executing.
	Hit bool
	// Shared: coalesced onto a concurrent identical execution.
	Shared bool
}

// Stats is a point-in-time snapshot of the cache's counters, surfaced
// by /api/stats alongside the /metrics exposition.
type Stats struct {
	Hits           int64 `json:"hits"`
	Misses         int64 `json:"misses"`
	Shared         int64 `json:"shared"`
	Evictions      int64 `json:"evictions"`
	Invalidations  int64 `json:"invalidations"`
	Refills        int64 `json:"refills"`
	Bytes          int64 `json:"bytes"`
	Entries        int64 `json:"entries"`
	PlanHits       int64 `json:"planHits"`
	PlanMisses     int64 `json:"planMisses"`
	CompiledHits   int64 `json:"compiledHits"`
	CompiledMisses int64 `json:"compiledMisses"`
}

// Cache is a snapshot-keyed query cache: plan LRU + byte-budgeted
// result LRU + singleflight. Safe for concurrent use.
type Cache struct {
	maxBytes   int64
	maxEntries int
	maxPlans   int

	mu      sync.Mutex
	results map[Key]*list.Element
	resList *list.List // front = most recent; values are *resultEntry
	bytes   int64
	gen     int64 // bumped by Invalidate; stale leaders skip their insert
	flight  map[Key]*call
	plans   map[string]*list.Element
	planLRU *list.List // values are *planEntry

	hits, misses, shared         atomic.Int64
	evictions, invalidations     atomic.Int64
	refills                      atomic.Int64
	planHits, planMisses         atomic.Int64
	compiledHits, compiledMisses atomic.Int64
}

type resultEntry struct {
	key  Key
	res  *query.Result
	size int64
	hits int64
}

type planEntry struct {
	text string
	q    *query.Query
	// Compiled plan built against one statistics generation. Unlike the
	// parse, compilation reads graph statistics, so the cached value is
	// only valid while its generation matches: a snapshot swap rebuilds
	// statistics, and serving the old plan would keep anchor and
	// expansion-order choices tuned to a graph that no longer exists.
	// Stored opaquely so qcache does not import the planner.
	compiled    any
	compiledGen int64
}

// call is one in-flight leader execution followers can wait on.
type call struct {
	done chan struct{}
	res  *query.Result
	err  error
	gen  int64
}

// New builds a cache with the given sizing.
func New(cfg Config) *Cache {
	if cfg.MaxBytes <= 0 {
		cfg.MaxBytes = DefaultMaxBytes
	}
	if cfg.MaxEntries <= 0 {
		cfg.MaxEntries = DefaultMaxEntries
	}
	if cfg.MaxPlans <= 0 {
		cfg.MaxPlans = DefaultMaxPlans
	}
	return &Cache{
		maxBytes:   cfg.MaxBytes,
		maxEntries: cfg.MaxEntries,
		maxPlans:   cfg.MaxPlans,
		results:    map[Key]*list.Element{},
		resList:    list.New(),
		flight:     map[Key]*call{},
		plans:      map[string]*list.Element{},
		planLRU:    list.New(),
	}
}

// Plan returns the parsed form of text, parsing at most once per cached
// text. Parse errors are returned but not cached (a failing query is
// already cheap to fail again, and error queries should not evict
// useful plans).
func (c *Cache) Plan(text string) (*query.Query, error) {
	c.mu.Lock()
	if e, ok := c.plans[text]; ok {
		c.planLRU.MoveToFront(e)
		q := e.Value.(*planEntry).q
		c.mu.Unlock()
		c.planHits.Add(1)
		mPlanHits.Inc()
		return q, nil
	}
	c.mu.Unlock()

	q, err := query.Parse(text)
	c.planMisses.Add(1)
	mPlanMisses.Inc()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if _, ok := c.plans[text]; !ok {
		c.plans[text] = c.planLRU.PushFront(&planEntry{text: text, q: q})
		if c.planLRU.Len() > c.maxPlans {
			back := c.planLRU.Back()
			c.planLRU.Remove(back)
			delete(c.plans, back.Value.(*planEntry).text)
		}
	}
	c.mu.Unlock()
	return q, nil
}

// CompiledPlan returns the compiled execution plan cached for text,
// rebuilding it when the cached copy was compiled against a different
// statistics generation than gen. This is the compiled analogue of
// Plan: parsing is snapshot-independent and cached forever, but a
// compiled plan bakes in cost decisions (anchor choice, expansion
// order) read from the graph statistics, so it is only served while the
// statistics that justified it are current. The value is opaque to the
// cache (the planner imports qcache's caller, not vice versa). A build
// error is returned and not cached. Texts never seen by Plan are built
// but not cached — the plan LRU is populated by parsing, which every
// caller does first.
func (c *Cache) CompiledPlan(text string, gen int64, build func() (any, error)) (any, error) {
	c.mu.Lock()
	if e, ok := c.plans[text]; ok {
		ent := e.Value.(*planEntry)
		if ent.compiled != nil && ent.compiledGen == gen {
			c.planLRU.MoveToFront(e)
			compiled := ent.compiled
			c.mu.Unlock()
			c.compiledHits.Add(1)
			mCompiledHits.Inc()
			return compiled, nil
		}
	}
	c.mu.Unlock()

	c.compiledMisses.Add(1)
	mCompiledMisses.Inc()
	compiled, err := build()
	if err != nil {
		return nil, err
	}
	c.mu.Lock()
	if e, ok := c.plans[text]; ok {
		ent := e.Value.(*planEntry)
		ent.compiled, ent.compiledGen = compiled, gen
	}
	c.mu.Unlock()
	return compiled, nil
}

// Do serves k from the result cache, or joins an in-flight identical
// execution, or runs exec as the leader and caches its success. The
// context only governs a follower's wait: a leader's exec is expected
// to honour its own context. A leader's error is handed to every
// waiting follower but never cached.
func (c *Cache) Do(ctx context.Context, k Key, exec func() (*query.Result, error)) (*query.Result, Outcome, error) {
	c.mu.Lock()
	if e, ok := c.results[k]; ok {
		ent := e.Value.(*resultEntry)
		c.resList.MoveToFront(e)
		ent.hits++
		c.mu.Unlock()
		c.hits.Add(1)
		mHits.Inc()
		return ent.res, Outcome{Hit: true}, nil
	}
	if cl, ok := c.flight[k]; ok {
		c.mu.Unlock()
		// The singleflight-follower wait is dead time from the caller's
		// point of view; give it its own span so a trace distinguishes
		// "my query was slow" from "I waited on someone else's".
		wait := trace.FromContext(ctx).Child("qcache.wait")
		select {
		case <-cl.done:
			wait.End()
			c.shared.Add(1)
			mShared.Inc()
			return cl.res, Outcome{Shared: true}, cl.err
		case <-ctx.Done():
			wait.SetError(ctx.Err())
			wait.End()
			return nil, Outcome{}, ctx.Err()
		}
	}
	cl := &call{done: make(chan struct{}), gen: c.gen}
	c.flight[k] = cl
	c.mu.Unlock()

	c.misses.Add(1)
	mMisses.Inc()
	c.lead(k, cl, exec)
	return cl.res, Outcome{}, cl.err
}

// Get serves k from the result cache without executing anything and
// without joining or starting a singleflight call. Streamed queries use
// it for their cache interaction: a hit replays the cached rows through
// the stream; a miss executes streaming-side and deliberately skips the
// insert (the rows have already left the process, and buffering them
// for the cache would undo the bounded-memory point of streaming).
// Only hits are counted — a streamed miss never enters the cache
// machinery, so counting it would skew the hit ratio of Do.
func (c *Cache) Get(k Key) (*query.Result, bool) {
	c.mu.Lock()
	e, ok := c.results[k]
	if !ok {
		c.mu.Unlock()
		return nil, false
	}
	ent := e.Value.(*resultEntry)
	c.resList.MoveToFront(e)
	ent.hits++
	c.mu.Unlock()
	c.hits.Add(1)
	mHits.Inc()
	return ent.res, true
}

// lead runs one execution as the singleflight leader and publishes the
// outcome. A panic out of exec (the executor recovers its own, so this
// is belt and braces) is converted to an error so followers are never
// left waiting on a channel nobody will close.
func (c *Cache) lead(k Key, cl *call, exec func() (*query.Result, error)) {
	defer func() {
		if r := recover(); r != nil {
			cl.res, cl.err = nil, fmt.Errorf("qcache: execution panicked: %v", r)
		}
		c.mu.Lock()
		delete(c.flight, k)
		// Only cache successes, and only if no invalidation (snapshot
		// swap) happened while we were executing: a result computed
		// against a retired snapshot must not outlive it.
		if cl.err == nil && cl.res != nil && cl.gen == c.gen {
			c.insertLocked(k, cl.res)
		}
		c.mu.Unlock()
		close(cl.done)
	}()
	cl.res, cl.err = exec()
}

// insertLocked adds a result under the byte and entry budgets, evicting
// LRU entries to make room. Results larger than the whole budget are
// not cached at all.
func (c *Cache) insertLocked(k Key, res *query.Result) {
	if _, ok := c.results[k]; ok {
		return // a racing leader got here first
	}
	size := EstimateSize(res)
	if size > c.maxBytes {
		return
	}
	c.results[k] = c.resList.PushFront(&resultEntry{key: k, res: res, size: size})
	c.bytes += size
	for (c.bytes > c.maxBytes || len(c.results) > c.maxEntries) && c.resList.Len() > 1 {
		back := c.resList.Back()
		ent := back.Value.(*resultEntry)
		c.resList.Remove(back)
		delete(c.results, ent.key)
		c.bytes -= ent.size
		c.evictions.Add(1)
		mEvictions.Inc()
	}
	mBytes.Set(c.bytes)
	mEntries.Set(int64(len(c.results)))
}

// Invalidate drops every cached result (plans survive: parsing does not
// depend on the graph). The engine calls this on a swap that reuses the
// epoch, and the generation bump makes in-flight leaders drop their
// inserts.
func (c *Cache) Invalidate() { c.retain(func(Key) bool { return false }) }

// Retain drops every cached result whose key is not at epoch, the
// partial invalidation that follows a swap to a new epoch whose hot
// entries were refilled. Like Invalidate it bumps the generation and
// counts as an invalidation.
func (c *Cache) Retain(epoch int64) { c.retain(func(k Key) bool { return k.Epoch == epoch }) }

func (c *Cache) retain(keep func(Key) bool) {
	c.mu.Lock()
	c.gen++
	for e := c.resList.Front(); e != nil; {
		next := e.Next()
		if ent := e.Value.(*resultEntry); !keep(ent.key) {
			c.resList.Remove(e)
			delete(c.results, ent.key)
			c.bytes -= ent.size
		}
		e = next
	}
	bytes, entries := c.bytes, int64(len(c.results))
	c.mu.Unlock()
	c.invalidations.Add(1)
	mInvalidations.Inc()
	mBytes.Set(bytes)
	mEntries.Set(entries)
}

// Hot returns the keys of the results at epoch that were served from
// the cache at least once since they were stored, most recently used
// first: what a swap away from epoch re-executes to keep the cache
// warm, in the order a refill with a deadline should spend it.
func (c *Cache) Hot(epoch int64) []Key {
	c.mu.Lock()
	defer c.mu.Unlock()
	var keys []Key
	for e := c.resList.Front(); e != nil; e = e.Next() {
		if ent := e.Value.(*resultEntry); ent.key.Epoch == epoch && ent.hits > 0 {
			keys = append(keys, ent.key)
		}
	}
	return keys
}

// Refill executes keys in order ahead of any reader, as the engine does
// for the Hot keys of the outgoing epoch (re-keyed to the new one)
// against the snapshot it is about to publish, and stores the results.
// Once ctx is done it executes no further key, so a refill given a
// deadline leaves the rest to their first readers. The results are
// stored last key first, so the first key ends up the most recently
// used, as in Hot's order. Each execution counts a refill, never a miss,
// so misses keep meaning reader requests that had to execute. A failed
// execution (an error, or a panic out of exec, as in lead) is not
// cached. Returns the number of keys executed.
func (c *Cache) Refill(ctx context.Context, keys []Key, exec func(context.Context, Key) (*query.Result, error)) int {
	results := make([]*query.Result, 0, len(keys))
	for _, k := range keys {
		if ctx.Err() != nil {
			break
		}
		c.refills.Add(1)
		mRefills.Inc()
		results = append(results, refillOne(ctx, k, exec))
	}
	c.mu.Lock()
	for i := len(results) - 1; i >= 0; i-- {
		if results[i] != nil {
			c.insertLocked(keys[i], results[i])
		}
	}
	c.mu.Unlock()
	return len(results)
}

// refillOne executes k, returning nil when it fails or panics.
func refillOne(ctx context.Context, k Key, exec func(context.Context, Key) (*query.Result, error)) (res *query.Result) {
	defer func() {
		if recover() != nil {
			res = nil
		}
	}()
	res, err := exec(ctx, k)
	if err != nil {
		return nil
	}
	return res
}

// EntryHits reports how many times k has been served from the result
// cache since it was last inserted (0 when absent). PROFILE responses
// surface this so a user can see whether the query they are tracing is
// normally served warm.
func (c *Cache) EntryHits(k Key) int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	if e, ok := c.results[k]; ok {
		return e.Value.(*resultEntry).hits
	}
	return 0
}

// Stats snapshots the cache counters.
func (c *Cache) Stats() Stats {
	c.mu.Lock()
	bytes, entries := c.bytes, int64(len(c.results))
	c.mu.Unlock()
	return Stats{
		Hits:           c.hits.Load(),
		Misses:         c.misses.Load(),
		Shared:         c.shared.Load(),
		Evictions:      c.evictions.Load(),
		Invalidations:  c.invalidations.Load(),
		Refills:        c.refills.Load(),
		Bytes:          bytes,
		Entries:        entries,
		PlanHits:       c.planHits.Load(),
		PlanMisses:     c.planMisses.Load(),
		CompiledHits:   c.compiledHits.Load(),
		CompiledMisses: c.compiledMisses.Load(),
	}
}

// EstimateSize approximates the memory a result table retains: fixed
// per-row and per-value overhead plus the bytes of every string scalar,
// list element, and path step. It is deliberately a cheap walk, not an
// exact accounting — the budget only needs to be proportional.
func EstimateSize(r *query.Result) int64 {
	size := int64(64)
	for _, c := range r.Columns {
		size += int64(len(c)) + 16
	}
	for _, row := range r.Rows {
		size += 24
		for _, v := range row {
			size += valSize(v)
		}
	}
	return size
}

func valSize(v query.Val) int64 {
	size := int64(56) // sizeof(Val), roughly
	if v.Kind == query.ValScalar && v.Scalar.Kind() == graph.KindString {
		size += int64(len(v.Scalar.AsString()))
	}
	for _, x := range v.List {
		size += valSize(x)
	}
	size += int64(len(v.Path.Steps)) * 16
	return size
}
