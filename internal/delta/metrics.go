package delta

import (
	"time"

	"frappe/internal/obs"
)

// Incremental-update metrics. "Dirty" counts the units a plan sent back
// through the frontend, "clean" the units whose cached artifacts were
// reused — the ratio is the whole value proposition of the subsystem,
// so it is the first thing worth graphing for a live server.
var (
	mUpdates = obs.Default.Counter("frappe_delta_updates_total",
		"Incremental updates that produced a new graph.", nil)
	mNoops = obs.Default.Counter("frappe_delta_update_noops_total",
		"Incremental updates whose plan was empty (nothing changed).", nil)
	mDirty = obs.Default.Counter("frappe_delta_units_dirty_total",
		"Translation units re-extracted by incremental updates.", nil)
	mClean = obs.Default.Counter("frappe_delta_units_clean_total",
		"Translation units reused from cache by incremental updates.", nil)
)

// PhaseHistogram returns the frappe_update_phase_ms series of one
// update phase. Phases are observed only for work that produces a new
// graph, never for no-op or failed calls: Session.Update observes plan,
// frontend, assemble and diff (diff only when given an old graph) when
// it returns a graph, PersistUpdate observes stage (building and
// publishing the commit) when the commit is published, and
// core.Engine.UpdateWith observes publish and refill when it swaps;
// direct Swap calls observe nothing. The phases do not overlap, so one
// applied update's samples add up to about its duration.
func PhaseHistogram(phase string) *obs.Histogram {
	return obs.Default.Histogram("frappe_update_phase_ms",
		"Wall time of each phase of an update in milliseconds (plan, frontend, assemble, diff, stage, publish, refill).",
		obs.Labels{"phase": phase}, nil)
}

var (
	mPhasePlan     = PhaseHistogram("plan")
	mPhaseFrontend = PhaseHistogram("frontend")
	mPhaseAssemble = PhaseHistogram("assemble")
	mPhaseDiff     = PhaseHistogram("diff")
	mPhaseStage    = PhaseHistogram("stage")
)

// observePhase records the time from start to end on h.
func observePhase(h *obs.Histogram, start, end time.Time) {
	h.Observe(float64(end.Sub(start)) / float64(time.Millisecond))
}
