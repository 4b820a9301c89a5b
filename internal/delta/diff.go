package delta

import (
	"sort"
	"strings"

	"frappe/internal/graph"
	"frappe/internal/model"
)

// Diff summarises the node and edge additions and retractions between
// two graph states. It is computed over canonical signatures, not IDs:
// node and edge IDs are dense and renumber on every materialisation, and
// FILE_ID properties are per-run interning order, so raw comparison
// would report spurious churn. Signatures replace file IDs with paths
// and anchor every entity to its defining location, which makes the diff
// (and the incremental-vs-rebuild equivalence tests) exact.
type Diff struct {
	NodesAdded   int `json:"nodesAdded"`
	NodesRemoved int `json:"nodesRemoved"`
	EdgesAdded   int `json:"edgesAdded"`
	EdgesRemoved int `json:"edgesRemoved"`
}

// Zero reports whether the diff records no change.
func (d Diff) Zero() bool {
	return d.NodesAdded == 0 && d.NodesRemoved == 0 && d.EdgesAdded == 0 && d.EdgesRemoved == 0
}

// Compute diffs new against old by signature multiset, building every
// signature as a string. The update path counts the same multisets by
// hash (sighash.go); Compute is the reference the tests hold it to.
func Compute(old, new graph.Source) Diff {
	var d Diff
	oldNodes := countMultiset(NodeSignatures(old))
	newNodes := countMultiset(NodeSignatures(new))
	d.NodesAdded, d.NodesRemoved = multisetDelta(oldNodes, newNodes)
	oldEdges := countMultiset(EdgeSignatures(old))
	newEdges := countMultiset(EdgeSignatures(new))
	d.EdgesAdded, d.EdgesRemoved = multisetDelta(oldEdges, newEdges)
	return d
}

func countMultiset(sigs []string) map[string]int {
	m := make(map[string]int, len(sigs))
	for _, s := range sigs {
		m[s]++
	}
	return m
}

// multisetDelta returns how many signatures new gained and lost.
func multisetDelta(old, new map[string]int) (added, removed int) {
	for sig, n := range new {
		if extra := n - old[sig]; extra > 0 {
			added += extra
		}
	}
	for sig, n := range old {
		if lost := n - new[sig]; lost > 0 {
			removed += lost
		}
	}
	return added, removed
}

// sigTable caches per-graph canonicalisation state.
type sigTable struct {
	src      graph.Source
	pathByID map[int64]string // FILE_ID -> file path
	nodeSigs []string
}

func newSigTable(src graph.Source) *sigTable {
	return &sigTable{src: src, pathByID: filePaths(src)}
}

// filePaths maps every FILE_ID in src to its file's path.
func filePaths(src graph.Source) map[int64]string {
	paths := map[int64]string{}
	n := src.NodeCount()
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		if src.NodeType(id) != model.NodeFile {
			continue
		}
		fid, ok := src.NodeProp(id, "FILE_ID")
		if !ok {
			continue
		}
		if p, ok := src.NodeProp(id, model.PropName); ok {
			paths[fid.AsInt()] = p.AsString()
		}
	}
	return paths
}

// fileIDKeys are the properties whose values are run-local file IDs.
var fileIDKeys = map[string]bool{
	"FILE_ID":            true,
	model.PropUseFileID:  true,
	model.PropNameFileID: true,
}

// propsSig renders a property list canonically: keys sorted, file IDs
// replaced by paths.
func (t *sigTable) propsSig(ps graph.Props) string {
	if len(ps) == 0 {
		return ""
	}
	parts := make([]string, 0, len(ps))
	for _, p := range ps {
		v := p.Val.String()
		if fileIDKeys[strings.ToUpper(p.Key)] && p.Val.Kind() == graph.KindInt {
			v = "path:" + t.pathByID[p.Val.AsInt()]
		}
		parts = append(parts, strings.ToUpper(p.Key)+"="+v)
	}
	sort.Strings(parts)
	return strings.Join(parts, ",")
}

// nodeSig canonically identifies one node: concrete type, properties
// (with file paths for file IDs), and the defining location from its
// incoming file_contains edge — which disambiguates same-named entities
// such as file-static functions defined in different files.
func (t *sigTable) nodeSig(id graph.NodeID) string {
	if t.nodeSigs == nil {
		t.nodeSigs = make([]string, t.src.NodeCount())
	}
	if s := t.nodeSigs[id]; s != "" {
		return s
	}
	var b strings.Builder
	b.WriteString(string(t.src.NodeType(id)))
	b.WriteByte('|')
	b.WriteString(t.propsSig(t.src.NodeProps(id)))
	for _, eid := range t.src.In(id) {
		from, _, et := t.src.EdgeEnds(eid)
		if et != model.EdgeFileContains {
			continue
		}
		b.WriteString("|@")
		if p, ok := t.src.NodeProp(from, model.PropName); ok {
			b.WriteString(p.AsString())
		}
		if l, ok := t.src.EdgeProp(eid, model.PropNameStartLine); ok {
			b.WriteByte(':')
			b.WriteString(l.String())
		}
		if c, ok := t.src.EdgeProp(eid, model.PropNameStartCol); ok {
			b.WriteByte(':')
			b.WriteString(c.String())
		}
		break
	}
	s := b.String()
	t.nodeSigs[id] = s
	return s
}

// NodeSignatures returns the canonical signature of every node. Two
// graph states describe the same code exactly when their node and edge
// signature multisets are equal.
func NodeSignatures(src graph.Source) []string {
	t := newSigTable(src)
	n := src.NodeCount()
	out := make([]string, n)
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		out[id] = t.nodeSig(id)
	}
	return out
}

// EdgeSignatures returns the canonical signature of every edge:
// endpoint node signatures, edge type, and canonicalised properties.
func EdgeSignatures(src graph.Source) []string {
	t := newSigTable(src)
	n := src.EdgeCount()
	out := make([]string, n)
	for id := graph.EdgeID(0); id < graph.EdgeID(n); id++ {
		from, to, et := src.EdgeEnds(id)
		out[id] = t.nodeSig(from) + " -[" + string(et) + "|" + t.propsSig(src.EdgeProps(id)) + "]-> " + t.nodeSig(to)
	}
	return out
}
