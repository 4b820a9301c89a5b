package qcache

import "frappe/internal/obs"

// Query-cache metrics. These are process-wide (every Cache instance
// feeds the same families — in production there is one cache per
// engine); per-cache numbers come from Cache.Stats. Counters are bumped
// once per Do/Plan call, never inside a loop, so the instrumentation
// cost is invisible next to even a cache hit.
var (
	mHits = obs.Default.Counter("frappe_qcache_hits_total",
		"Queries served from the result cache without executing.", nil)
	mMisses = obs.Default.Counter("frappe_qcache_misses_total",
		"Queries that missed the result cache and executed.", nil)
	mShared = obs.Default.Counter("frappe_qcache_singleflight_shared_total",
		"Queries coalesced onto a concurrent identical execution.", nil)
	mEvictions = obs.Default.Counter("frappe_qcache_evictions_total",
		"Result-cache entries evicted by the byte or entry budget.", nil)
	mInvalidations = obs.Default.Counter("frappe_qcache_invalidations_total",
		"Result-cache invalidations (snapshot swaps): whole, or every epoch but the new one.", nil)
	mRefills = obs.Default.Counter("frappe_qcache_refills_total",
		"Hot results re-executed against a new snapshot before it was published.", nil)
	mBytes = obs.Default.Gauge("frappe_qcache_bytes",
		"Estimated bytes held by cached query results.", nil)
	mEntries = obs.Default.Gauge("frappe_qcache_entries",
		"Cached query results currently held.", nil)
	mPlanHits = obs.Default.Counter("frappe_qcache_plan_hits_total",
		"Queries whose parsed plan was served from the plan cache.", nil)
	mPlanMisses = obs.Default.Counter("frappe_qcache_plan_misses_total",
		"Queries that had to be lexed and parsed.", nil)
	mCompiledHits = obs.Default.Counter("frappe_qcache_compiled_hits_total",
		"Queries whose compiled plan was served from the plan cache at a current statistics generation.", nil)
	mCompiledMisses = obs.Default.Counter("frappe_qcache_compiled_misses_total",
		"Queries whose compiled plan was (re)built — first sight or stale statistics generation.", nil)
)
