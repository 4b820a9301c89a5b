// Package obs is Frappé's observability layer: a stdlib-only metrics
// registry with Prometheus text exposition. The paper's whole evaluation
// (Tables 5–6) is measurement — cold vs. warm cache, per-query latency,
// index vs. expansion cost — and this package makes the same quantities
// observable in a running server instead of only in offline benchmarks.
//
// Design constraints, in order:
//
//  1. Hot paths pay one atomic op per event, never a lock. Counter and
//     Gauge are a single atomic.Int64; Histogram does one atomic add per
//     bucket observation plus a CAS loop for the float sum. Registration
//     (the only mutex) happens at package init or server startup.
//  2. Components that already keep their own atomic counters (the store
//     pager's CacheStats, the server's shed count) are not
//     double-instrumented: a Collector samples them at scrape time.
//  3. Exposition is the Prometheus text format, so any scraper, promtool
//     or curl|grep works against GET /metrics.
//
// The package-level Default registry is what every Frappé subsystem
// instruments against; tests needing isolation construct their own.
package obs

import (
	"fmt"
	"math"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
)

// Kind is a metric family's type, as exposed in the "# TYPE" comment.
type Kind string

// Metric family kinds.
const (
	KindCounter   Kind = "counter"
	KindGauge     Kind = "gauge"
	KindHistogram Kind = "histogram"
)

// Labels name one series within a family. Empty and nil are equivalent.
type Labels map[string]string

// Default is the process-wide registry every subsystem instruments
// against. GET /metrics renders it.
var Default = NewRegistry()

// Registry holds metric families. Instrument lookups (Counter, Gauge,
// Histogram) are idempotent: the same name+labels returns the same
// instrument, so packages can declare instruments in var blocks without
// coordinating.
type Registry struct {
	mu         sync.Mutex
	families   map[string]*family
	collectors []Collector
}

// Collector samples externally maintained counters at scrape time. It
// must call emit once per sample; histogram samples cannot be emitted
// this way (use a Histogram instrument).
type Collector func(emit func(Sample))

// Sample is one collector-produced value.
type Sample struct {
	Name   string
	Help   string
	Kind   Kind // KindCounter or KindGauge
	Labels Labels
	Value  float64
}

type family struct {
	name    string
	help    string
	kind    Kind
	buckets []float64 // histograms only
	series  map[string]instrument
	order   []string // insertion-ordered series keys, for stable exposition
}

type instrument interface {
	labels() Labels
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{families: map[string]*family{}}
}

// labelKey serialises labels into a canonical map key.
func labelKey(ls Labels) string {
	if len(ls) == 0 {
		return ""
	}
	keys := make([]string, 0, len(ls))
	for k := range ls {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(ls[k])
		sb.WriteByte(',')
	}
	return sb.String()
}

// copyLabels defends against callers mutating the map after registration.
func copyLabels(ls Labels) Labels {
	if len(ls) == 0 {
		return nil
	}
	out := make(Labels, len(ls))
	for k, v := range ls {
		out[k] = v
	}
	return out
}

// get returns the family, creating it with the given shape or validating
// an existing one against it.
func (r *Registry) get(name, help string, kind Kind, buckets []float64) *family {
	f, ok := r.families[name]
	if !ok {
		f = &family{name: name, help: help, kind: kind, buckets: buckets, series: map[string]instrument{}}
		r.families[name] = f
		return f
	}
	if f.kind != kind {
		panic(fmt.Sprintf("obs: metric %q re-registered as %s, was %s", name, kind, f.kind))
	}
	return f
}

func (f *family) lookup(ls Labels, mk func(Labels) instrument) instrument {
	k := labelKey(ls)
	if inst, ok := f.series[k]; ok {
		return inst
	}
	inst := mk(copyLabels(ls))
	f.series[k] = inst
	f.order = append(f.order, k)
	return inst
}

// --- Counter ---

// Counter is a monotonically increasing value.
type Counter struct {
	ls Labels
	v  atomic.Int64
}

func (c *Counter) labels() Labels { return c.ls }

// Inc adds one.
func (c *Counter) Inc() { c.v.Add(1) }

// Add adds n; negative deltas are ignored (counters never go down).
func (c *Counter) Add(n int64) {
	if n > 0 {
		c.v.Add(n)
	}
}

// Value returns the current count.
func (c *Counter) Value() int64 { return c.v.Load() }

// Counter returns the counter instrument for name+labels, registering
// the family on first use.
func (r *Registry) Counter(name, help string, ls Labels) *Counter {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindCounter, nil)
	return f.lookup(ls, func(ls Labels) instrument { return &Counter{ls: ls} }).(*Counter)
}

// --- Gauge ---

// Gauge is a value that can go up and down (in-flight requests, epoch).
type Gauge struct {
	ls Labels
	v  atomic.Int64
}

func (g *Gauge) labels() Labels { return g.ls }

// Set replaces the value.
func (g *Gauge) Set(n int64) { g.v.Store(n) }

// Add adjusts the value by n (negative allowed).
func (g *Gauge) Add(n int64) { g.v.Add(n) }

// Value returns the current value.
func (g *Gauge) Value() int64 { return g.v.Load() }

// Gauge returns the gauge instrument for name+labels.
func (r *Registry) Gauge(name, help string, ls Labels) *Gauge {
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindGauge, nil)
	return f.lookup(ls, func(ls Labels) instrument { return &Gauge{ls: ls} }).(*Gauge)
}

// --- Histogram ---

// LatencyBucketsMS is the default latency bucket layout, in
// milliseconds: sub-100µs index hits through multi-second cold scans,
// roughly ×2.5 per step — wide enough to separate the paper's warm
// (sub-millisecond) and cold (tens of ms) regimes.
var LatencyBucketsMS = []float64{0.05, 0.1, 0.25, 0.5, 1, 2.5, 5, 10, 25, 50, 100, 250, 500, 1000, 2500, 5000, 10000}

// Histogram counts observations into fixed cumulative-exposed buckets.
// Observe is lock-free: one atomic add on the bucket, one on the count,
// and a CAS loop folding the observation into the float64 sum.
type Histogram struct {
	ls      Labels
	bounds  []float64 // upper bounds, ascending; +Inf implicit
	buckets []atomic.Int64
	count   atomic.Int64
	sumBits atomic.Uint64 // float64 bits
}

func (h *Histogram) labels() Labels { return h.ls }

// Observe records one value.
func (h *Histogram) Observe(v float64) {
	// Bucket search: the layouts here are small (≤ ~20 bounds), so a
	// linear scan beats binary search in practice and stays branch-cheap.
	i := 0
	for i < len(h.bounds) && v > h.bounds[i] {
		i++
	}
	if i < len(h.buckets) {
		h.buckets[i].Add(1)
	}
	h.count.Add(1)
	for {
		old := h.sumBits.Load()
		next := math.Float64bits(math.Float64frombits(old) + v)
		if h.sumBits.CompareAndSwap(old, next) {
			return
		}
	}
}

// HistSnapshot is a consistent-enough read of a histogram: counters are
// loaded individually (a concurrent Observe may straddle the loads, as
// with CacheStats), cumulative per Prometheus bucket semantics.
type HistSnapshot struct {
	Bounds     []float64 // upper bounds, ascending (no +Inf entry)
	Cumulative []int64   // Cumulative[i] = observations <= Bounds[i]
	Count      int64
	Sum        float64
}

// Snapshot reads the histogram's current state.
func (h *Histogram) Snapshot() HistSnapshot {
	s := HistSnapshot{
		Bounds:     h.bounds,
		Cumulative: make([]int64, len(h.bounds)),
		Count:      h.count.Load(),
		Sum:        math.Float64frombits(h.sumBits.Load()),
	}
	var run int64
	for i := range h.bounds {
		// The last bucket slot holds > bounds[len-1] (the +Inf bucket) and
		// is exposed via Count.
		run += h.buckets[i].Load()
		s.Cumulative[i] = run
	}
	return s
}

// Histogram returns the histogram instrument for name+labels. buckets
// are ascending upper bounds; nil uses LatencyBucketsMS. The bucket
// layout is fixed by the first registration of the family.
func (r *Registry) Histogram(name, help string, ls Labels, buckets []float64) *Histogram {
	if len(buckets) == 0 {
		buckets = LatencyBucketsMS
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	f := r.get(name, help, KindHistogram, buckets)
	return f.lookup(ls, func(ls Labels) instrument {
		return &Histogram{ls: ls, bounds: f.buckets, buckets: make([]atomic.Int64, len(f.buckets)+1)}
	}).(*Histogram)
}

// --- Collectors ---

// RegisterCollector adds a scrape-time sampler. Collectors run on every
// Gather under the registry lock; keep them cheap (atomic loads).
func (r *Registry) RegisterCollector(c Collector) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.collectors = append(r.collectors, c)
}

// --- Gather ---

// Series is one exposed series of a family.
type Series struct {
	Labels Labels
	Value  float64       // counters and gauges
	Hist   *HistSnapshot // histograms
}

// Family is one gathered metric family, ready for exposition or
// programmatic reads.
type Family struct {
	Name   string
	Help   string
	Kind   Kind
	Series []Series
}

// Gather snapshots every registered instrument plus the output of the
// registry's collectors and any extra ones, sorted by family name.
func (r *Registry) Gather(extra ...Collector) []Family {
	r.mu.Lock()
	defer r.mu.Unlock()

	byName := map[string]*Family{}
	ordered := make([]string, 0, len(r.families))
	fam := func(name, help string, kind Kind) *Family {
		if f, ok := byName[name]; ok {
			return f
		}
		f := &Family{Name: name, Help: help, Kind: kind}
		byName[name] = f
		ordered = append(ordered, name)
		return f
	}

	for _, f := range r.families {
		out := fam(f.name, f.help, f.kind)
		for _, k := range f.order {
			switch inst := f.series[k].(type) {
			case *Counter:
				out.Series = append(out.Series, Series{Labels: inst.ls, Value: float64(inst.Value())})
			case *Gauge:
				out.Series = append(out.Series, Series{Labels: inst.ls, Value: float64(inst.Value())})
			case *Histogram:
				snap := inst.Snapshot()
				out.Series = append(out.Series, Series{Labels: inst.ls, Hist: &snap})
			}
		}
	}
	emit := func(s Sample) {
		out := fam(s.Name, s.Help, s.Kind)
		out.Series = append(out.Series, Series{Labels: copyLabels(s.Labels), Value: s.Value})
	}
	for _, c := range r.collectors {
		c(emit)
	}
	for _, c := range extra {
		c(emit)
	}

	sort.Strings(ordered)
	fams := make([]Family, 0, len(ordered))
	for _, name := range ordered {
		fams = append(fams, *byName[name])
	}
	return fams
}
