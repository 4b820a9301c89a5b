// Package gstats collects per-snapshot graph statistics for the
// cost-based query planner: node counts per concrete type, edge counts
// per type, and per (node type × edge type × direction) degree
// summaries (count, total, max, approximate p50/p90 from a log2
// histogram).
//
// Statistics are collected once per published snapshot (the graph is
// immutable after publication), persisted alongside the store files
// through the same crash-consistent atomicfile commit as the store
// itself, and reloaded at open time so a server restart does not pay
// the full-scan collection cost before its first planned query. The
// engine gives every snapshot it publishes its statistics before the
// swap, so no reader collects after a swap.
//
// Every Stats value carries a process-local Generation number; the
// query-plan cache keys compiled plans by it, so a snapshot swap that
// changes label cardinalities or degree skew can never serve a plan
// whose anchor choice was made against the retired graph.
package gstats

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync/atomic"

	"frappe/internal/atomicfile"
	"frappe/internal/graph"
	"frappe/internal/model"
)

// FileName is the persisted form of a snapshot's statistics inside a
// store directory, written as part of the index/update commit bundle.
const FileName = "gstats.json"

// generation is the process-local statistics generation counter. Each
// Collect or Load gets a fresh number; plans record the generation they
// were built against and are invalidated when it moves on.
var generation atomic.Int64

// DegreeSummary summarises the degree distribution of one
// (node type, edge type, direction) combination over the nodes that
// have at least one such edge.
type DegreeSummary struct {
	// Nodes is how many nodes of this type have >= 1 edge of this
	// type/direction; Edges is the total number of such edges.
	Nodes int64 `json:"nodes"`
	Edges int64 `json:"edges"`
	Max   int64 `json:"max"`
	// P50 and P90 are approximate percentiles: the upper bound of the
	// log2 histogram bucket containing the quantile.
	P50 int64 `json:"p50"`
	P90 int64 `json:"p90"`
	// Buckets is a log2 degree histogram: Buckets[i] counts nodes whose
	// degree lies in [2^i, 2^(i+1)-1].
	Buckets []int64 `json:"buckets"`
}

// Stats is one snapshot's statistics bundle. All maps are keyed by
// plain strings so the JSON form is stable and diffable; Degrees keys
// are "nodeType|edgeType|out" / "...|in".
type Stats struct {
	// Generation is process-local and not persisted: it identifies this
	// in-memory statistics instance for plan-cache invalidation.
	Generation int64 `json:"-"`

	Nodes       int64                     `json:"nodes"`
	Edges       int64                     `json:"edges"`
	NodesByType map[string]int64          `json:"nodesByType"`
	EdgesByType map[string]int64          `json:"edgesByType"`
	Degrees     map[string]*DegreeSummary `json:"degrees"`
}

// DegreeKey builds the Degrees map key for one combination.
func DegreeKey(nt model.NodeType, et model.EdgeType, out bool) string {
	dir := "in"
	if out {
		dir = "out"
	}
	return string(nt) + "|" + string(et) + "|" + dir
}

// Collect computes statistics from a full scan of src: O(nodes + edges),
// walking each node's outgoing and incoming edges with a small
// per-edge-type counter, so it allocates per (node type, edge type,
// direction) combination rather than per node. The scan is the same
// order of work as writing the store, so it is cheap relative to
// index/update time.
func Collect(src graph.Source) *Stats {
	mStatsRebuilds.Inc()
	st := &Stats{
		Generation:  generation.Add(1),
		Nodes:       src.NodeCount(),
		Edges:       src.EdgeCount(),
		NodesByType: map[string]int64{},
		EdgesByType: map[string]int64{},
		Degrees:     map[string]*DegreeSummary{},
	}
	type sumKey struct {
		nt  model.NodeType
		et  model.EdgeType
		out bool
	}
	sums := map[sumKey]*DegreeSummary{}
	var tally []edgeTally
	for id := graph.NodeID(0); id < graph.NodeID(st.Nodes); id++ {
		nt := src.NodeType(id)
		st.NodesByType[string(nt)]++
		for _, out := range [2]bool{true, false} {
			edges := src.In(id)
			if out {
				edges = src.Out(id)
			}
			tally = countByType(src, edges, tally[:0])
			for _, c := range tally {
				k := sumKey{nt, c.et, out}
				s := sums[k]
				if s == nil {
					s = &DegreeSummary{}
					sums[k] = s
				}
				s.add(c.n)
				if out {
					st.EdgesByType[string(c.et)] += c.n
				}
			}
		}
	}
	for k, s := range sums {
		s.P50 = s.percentile(0.50)
		s.P90 = s.percentile(0.90)
		st.Degrees[DegreeKey(k.nt, k.et, k.out)] = s
	}
	return st
}

// edgeTally counts one node's edges of one type in one direction.
type edgeTally struct {
	et model.EdgeType
	n  int64
}

// countByType tallies edges by type into t. A node touches few edge
// types, so a linear scan beats a map.
func countByType(src graph.Source, edges []graph.EdgeID, t []edgeTally) []edgeTally {
next:
	for _, eid := range edges {
		_, _, et := src.EdgeEnds(eid)
		for i := range t {
			if t[i].et == et {
				t[i].n++
				continue next
			}
		}
		t = append(t, edgeTally{et, 1})
	}
	return t
}

// add folds one node's degree d (>= 1) into the summary.
func (s *DegreeSummary) add(d int64) {
	s.Nodes++
	s.Edges += d
	if d > s.Max {
		s.Max = d
	}
	b := bucketOf(d)
	for len(s.Buckets) <= b {
		s.Buckets = append(s.Buckets, 0)
	}
	s.Buckets[b]++
}

// bucketOf maps a degree (>= 1) to its log2 histogram bucket.
func bucketOf(d int64) int {
	b := 0
	for d > 1 {
		b++
		d /= 2
	}
	return b
}

// percentile returns the upper degree bound of the bucket containing
// the q-quantile of this summary's nodes.
func (s *DegreeSummary) percentile(q float64) int64 {
	if s.Nodes == 0 {
		return 0
	}
	target := int64(q * float64(s.Nodes))
	if target < 1 {
		target = 1
	}
	var cum int64
	for i, c := range s.Buckets {
		cum += c
		if cum >= target {
			hi := int64(1)<<(i+1) - 1
			if hi > s.Max {
				hi = s.Max
			}
			return hi
		}
	}
	return s.Max
}

// LabelCount estimates how many nodes carry a label: the exact count
// for a concrete type, the sum over concrete types for a grouped label
// (symbol, container, ...), and the full node count for an unknown
// label (the executor would fall back to a full scan there anyway).
func (st *Stats) LabelCount(label string) int64 {
	if c, ok := st.NodesByType[label]; ok {
		return c
	}
	var sum int64
	grouped := false
	for _, t := range model.AllNodeTypes {
		for _, l := range model.LabelsFor(t) {
			if l == label {
				grouped = true
				sum += st.NodesByType[string(t)]
			}
		}
	}
	if grouped {
		return sum
	}
	return st.Nodes
}

// AvgDegree estimates the expected fan-out of following edges of type
// et in the given direction from a node of type nt (averaged over all
// nodes of that type, including zero-degree ones). With an empty nt it
// averages over every node.
func (st *Stats) AvgDegree(nt string, et model.EdgeType, out bool) float64 {
	if nt != "" {
		if s, ok := st.Degrees[DegreeKey(model.NodeType(nt), et, out)]; ok {
			if n := st.NodesByType[nt]; n > 0 {
				return float64(s.Edges) / float64(n)
			}
		}
		return 0
	}
	if st.Nodes == 0 {
		return 0
	}
	return float64(st.EdgesByType[string(et)]) / float64(st.Nodes)
}

// Stage serialises st into an in-progress atomicfile commit, so the
// statistics publish (or vanish) atomically with the store files they
// describe.
func Stage(c *atomicfile.Commit, st *Stats) error {
	buf, err := json.MarshalIndent(st, "", "  ")
	if err != nil {
		return err
	}
	return c.WriteFile(FileName, append(buf, '\n'))
}

// Load reads persisted statistics from a store directory, assigning a
// fresh generation. ok is false (with a nil error) when no statistics
// file exists — older stores, or stores written by Engine.Save — in
// which case callers collect lazily instead.
func Load(dir string) (*Stats, bool, error) {
	buf, err := os.ReadFile(filepath.Join(dir, FileName))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, err
	}
	var st Stats
	if err := json.Unmarshal(buf, &st); err != nil {
		return nil, false, fmt.Errorf("gstats: %s: %w", FileName, err)
	}
	st.Generation = generation.Add(1)
	if st.NodesByType == nil {
		st.NodesByType = map[string]int64{}
	}
	if st.EdgesByType == nil {
		st.EdgesByType = map[string]int64{}
	}
	if st.Degrees == nil {
		st.Degrees = map[string]*DegreeSummary{}
	}
	return &st, true, nil
}

// Rebuilds reports how many times statistics have been collected in
// this process (surfaced by /api/stats next to the planner counters).
func Rebuilds() int64 { return mStatsRebuilds.Value() }
