package plan

import "frappe/internal/obs"

var (
	mRewrites = obs.Default.Counter(
		"frappe_plan_rewrites_total",
		"Closure rewrites applied by the query planner (variable-length expansion lowered to visited-set traversal).",
		nil,
	)
	mFallbacks = obs.Default.Counter(
		"frappe_plan_fallbacks_total",
		"Compiled queries run without planner hints (non-straight-line clause shape).",
		nil,
	)
	// Buckets sized for plan construction: an AST walk plus map lookups,
	// microseconds in the common case.
	mPlanBuild = obs.Default.Histogram(
		"frappe_plan_build_duration_ms",
		"Wall time to compile one query plan, in milliseconds.",
		nil,
		[]float64{0.001, 0.005, 0.01, 0.05, 0.1, 0.5, 1, 5, 10, 50},
	)
)

// Counters is the planner section of /api/stats.
type Counters struct {
	Rewrites      int64 `json:"rewrites"`
	Fallbacks     int64 `json:"fallbacks"`
	StatsRebuilds int64 `json:"statsRebuilds"`
}

// CountersSnapshot samples the planner counters (stats rebuilds are
// filled in by the caller from internal/gstats).
func CountersSnapshot() Counters {
	return Counters{
		Rewrites:  mRewrites.Value(),
		Fallbacks: mFallbacks.Value(),
	}
}
