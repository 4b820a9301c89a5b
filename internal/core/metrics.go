package core

import (
	"frappe/internal/delta"
	"frappe/internal/obs"
	"frappe/internal/store"
)

// Engine metrics. Swap/update events are rare (one per applied update),
// so these are instrumented directly; the page cache's per-file counters
// are already atomics inside the store and are sampled at scrape time by
// MetricsCollector instead of being double-counted on every page fault.
var (
	mSwaps = obs.Default.Counter("frappe_core_snapshot_swaps_total",
		"Snapshot swaps published by live updates.", nil)
	mEpochGauge = obs.Default.Gauge("frappe_core_epoch",
		"Update generation of the live snapshot.", nil)
	mUpdateDuration = obs.Default.Histogram("frappe_core_update_duration_ms",
		"Wall time of UpdateWith calls (plan through publish) in milliseconds.", nil, nil)
	mPhasePublish   = delta.PhaseHistogram("publish")
	mPhaseRefill    = delta.PhaseHistogram("refill")
	mUpdatesApplied = obs.Default.Counter("frappe_core_updates_total",
		"UpdateWith outcomes by result.", obs.Labels{"result": "applied"})
	mUpdatesNoop = obs.Default.Counter("frappe_core_updates_total",
		"UpdateWith outcomes by result.", obs.Labels{"result": "noop"})
	mUpdatesFailed = obs.Default.Counter("frappe_core_updates_total",
		"UpdateWith outcomes by result.", obs.Labels{"result": "error"})
)

// CacheStats returns the page-cache counters of a disk-backed engine,
// keyed by store file ("nodes", "relationships", ...); nil when the
// engine is in-memory. The snapshot is torn-read-free per counter but
// not across files.
func (e *Engine) CacheStats() map[string]store.CacheStats {
	if s := e.Snapshot(); s.db != nil {
		return s.db.Stats()
	}
	return nil
}

// MetricsCollector returns a scrape-time sampler exposing this engine's
// page-cache counters as frappe_store_page_cache_* series labelled by
// store file. Pass it to Registry.Gather as an extra so each server
// scrapes its own engine rather than registering process-global state.
func (e *Engine) MetricsCollector() obs.Collector {
	return func(emit func(obs.Sample)) {
		for file, cs := range e.CacheStats() {
			ls := obs.Labels{"file": file}
			emit(obs.Sample{Name: "frappe_store_page_cache_hits_total",
				Help: "Page-cache hits by store file.", Kind: obs.KindCounter, Labels: ls, Value: float64(cs.Hits)})
			emit(obs.Sample{Name: "frappe_store_page_cache_misses_total",
				Help: "Page-cache misses (page faults) by store file.", Kind: obs.KindCounter, Labels: ls, Value: float64(cs.Misses)})
			emit(obs.Sample{Name: "frappe_store_page_cache_evictions_total",
				Help: "Page-cache evictions by store file.", Kind: obs.KindCounter, Labels: ls, Value: float64(cs.Evictions)})
			emit(obs.Sample{Name: "frappe_store_page_cache_checksum_failures_total",
				Help: "CRC failures detected on page faults by store file.", Kind: obs.KindCounter, Labels: ls, Value: float64(cs.ChecksumFailures)})
			emit(obs.Sample{Name: "frappe_store_quarantined_pages",
				Help: "Pages currently quarantined after corruption-class read failures, by store file.", Kind: obs.KindGauge, Labels: ls, Value: float64(cs.Quarantined)})
		}
	}
}
