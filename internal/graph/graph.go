package graph

import (
	"fmt"

	"frappe/internal/model"
)

// NodeID identifies a node. IDs are dense: a graph with N nodes uses IDs
// 0..N-1, so a full scan is a counting loop (as in Neo4j's store files).
type NodeID int64

// EdgeID identifies an edge; also dense, 0..E-1.
type EdgeID int64

// InvalidID marks "no node"/"no edge".
const InvalidID = -1

// Source is the read interface shared by the in-memory Graph and the
// on-disk store reader. The Cypher executor and the traversal API are
// written against Source, mirroring how the paper runs the same queries
// against Neo4j's page-cached store (cold/warm) and its embedded API.
type Source interface {
	// NodeCount and EdgeCount report dense ID ranges.
	NodeCount() int64
	EdgeCount() int64

	// NodeType returns the concrete type of the node.
	NodeType(NodeID) model.NodeType
	// NodeHasLabel reports whether the node carries the label, which may
	// be its concrete type name or a grouped label (symbol, container...).
	NodeHasLabel(NodeID, string) bool
	// NodeProp fetches a node property by (case-insensitive) key.
	NodeProp(NodeID, string) (Value, bool)
	// NodeProps returns all properties of a node.
	NodeProps(NodeID) Props

	// EdgeEnds returns an edge's endpoints and type.
	EdgeEnds(EdgeID) (from, to NodeID, t model.EdgeType)
	// EdgeProp fetches an edge property by (case-insensitive) key.
	EdgeProp(EdgeID, string) (Value, bool)
	// EdgeProps returns all properties of an edge.
	EdgeProps(EdgeID) Props

	// Out and In return the IDs of outgoing/incoming edges of a node.
	// Callers must not mutate the returned slice.
	Out(NodeID) []EdgeID
	In(NodeID) []EdgeID

	// Lookup evaluates a node_auto_index query (see ParseIndexQuery for
	// the syntax) and returns matching node IDs in ascending order.
	Lookup(query string) ([]NodeID, error)
}

// node is the internal node record.
type node struct {
	typ   model.NodeType
	props Props
}

// edge is the internal edge record. Positional properties live in loc,
// every other property in props.
type edge struct {
	from, to NodeID
	typ      model.EdgeType
	props    Props
	loc      Loc
}

// Graph is the mutable in-memory property graph built by the extractor
// and the workload generator. It implements Source.
type Graph struct {
	nodes []node
	edges []edge
	out   [][]EdgeID
	in    [][]EdgeID
	index *Index
}

// New returns an empty graph with its auto-index attached.
func New() *Graph { return NewSized(0, 0) }

// NewSized is New with room reserved for the given node and edge
// counts, so a builder that knows roughly how large the graph will be
// (an incremental re-assembly of the graph it replaces) does not pay
// for repeated slice growth. The hint is only a capacity.
func NewSized(nodes, edges int) *Graph {
	return &Graph{
		nodes: make([]node, 0, nodes),
		edges: make([]edge, 0, edges),
		out:   make([][]EdgeID, 0, nodes),
		in:    make([][]EdgeID, 0, nodes),
		index: newIndex(),
	}
}

// AddNode appends a node of the given type with the given properties and
// returns its ID. The TYPE property is implied by typ and must not be set
// explicitly. Indexed properties (SHORT_NAME, NAME, LONG_NAME, TYPE) are
// added to the auto-index.
func (g *Graph) AddNode(typ model.NodeType, props Props) NodeID {
	id := NodeID(len(g.nodes))
	g.nodes = append(g.nodes, node{typ: typ, props: props})
	g.out = append(g.out, nil)
	g.in = append(g.in, nil)
	g.index.addNode(id, typ, props)
	return id
}

// AddEdge appends a directed edge and returns its ID. Both endpoints must
// already exist.
func (g *Graph) AddEdge(from, to NodeID, typ model.EdgeType, props Props) EdgeID {
	return g.addEdge(edge{from: from, to: to, typ: typ, props: props})
}

// AddEdgeLoc is AddEdge for an edge whose only properties are the
// positional ones in loc.
func (g *Graph) AddEdgeLoc(from, to NodeID, typ model.EdgeType, loc Loc) EdgeID {
	return g.addEdge(edge{from: from, to: to, typ: typ, loc: loc})
}

func (g *Graph) addEdge(e edge) EdgeID {
	if e.from < 0 || int(e.from) >= len(g.nodes) || e.to < 0 || int(e.to) >= len(g.nodes) {
		panic(fmt.Sprintf("graph.AddEdge: endpoint out of range (%d -> %d, %d nodes)", e.from, e.to, len(g.nodes)))
	}
	id := EdgeID(len(g.edges))
	g.edges = append(g.edges, e)
	g.out[e.from] = append(g.out[e.from], id)
	g.in[e.to] = append(g.in[e.to], id)
	return id
}

// SetNodeProp sets (or replaces) one property on an existing node and
// keeps the auto-index in sync for indexed keys.
func (g *Graph) SetNodeProp(id NodeID, key string, v Value) {
	n := &g.nodes[id]
	old, had := n.props.Get(key)
	n.props = n.props.Set(key, v)
	g.index.updateNode(id, key, old, had, v)
}

// NodeCount implements Source.
func (g *Graph) NodeCount() int64 { return int64(len(g.nodes)) }

// EdgeCount implements Source.
func (g *Graph) EdgeCount() int64 { return int64(len(g.edges)) }

// NodeType implements Source.
func (g *Graph) NodeType(id NodeID) model.NodeType { return g.nodes[id].typ }

// NodeHasLabel implements Source: true for the concrete type name and for
// any grouped label applying to that type.
func (g *Graph) NodeHasLabel(id NodeID, label string) bool {
	return HasLabel(g.nodes[id].typ, label)
}

// HasLabel reports whether a node of the given concrete type carries the
// label (its own type name, or a grouped label from model.LabelsFor).
func HasLabel(typ model.NodeType, label string) bool {
	if string(typ) == label {
		return true
	}
	for _, l := range model.LabelsFor(typ) {
		if l == label {
			return true
		}
	}
	return false
}

// NodeProp implements Source. The pseudo-property TYPE resolves to the
// node's concrete type.
func (g *Graph) NodeProp(id NodeID, key string) (Value, bool) {
	if eqFold(key, model.PropType) {
		return Str(string(g.nodes[id].typ)), true
	}
	return g.nodes[id].props.Get(key)
}

// NodeProps implements Source.
func (g *Graph) NodeProps(id NodeID) Props { return g.nodes[id].props }

// EdgeEnds implements Source.
func (g *Graph) EdgeEnds(id EdgeID) (NodeID, NodeID, model.EdgeType) {
	e := &g.edges[id]
	return e.from, e.to, e.typ
}

// EdgeProp implements Source.
func (g *Graph) EdgeProp(id EdgeID, key string) (Value, bool) {
	if eqFold(key, model.PropType) {
		return Str(string(g.edges[id].typ)), true
	}
	e := &g.edges[id]
	if v, ok := e.loc.prop(key); ok {
		return v, true
	}
	return e.props.Get(key)
}

// EdgeProps implements Source. The positional properties come first,
// in LocKey order, then the others; an edge without a Loc returns its
// property list itself, with no copy.
func (g *Graph) EdgeProps(id EdgeID) Props {
	e := &g.edges[id]
	if e.loc.Empty() {
		return e.props
	}
	ps := make(Props, 0, e.loc.count()+len(e.props))
	return append(e.loc.appendProps(ps), e.props...)
}

// EdgeLoc returns an edge's positional properties and, apart, its
// other properties: what EdgeProps merges, for whole-graph passes that
// handle a Loc without building a Props list.
func (g *Graph) EdgeLoc(id EdgeID) (Loc, Props) {
	e := &g.edges[id]
	return e.loc, e.props
}

// Out implements Source.
func (g *Graph) Out(id NodeID) []EdgeID { return g.out[id] }

// In implements Source.
func (g *Graph) In(id NodeID) []EdgeID { return g.in[id] }

// Lookup implements Source by evaluating q against the auto-index.
func (g *Graph) Lookup(q string) ([]NodeID, error) { return g.index.Lookup(q) }

// Index exposes the graph's auto-index (used by the store writer).
func (g *Graph) Index() *Index { return g.index }

// Degree returns in+out degree, the quantity plotted in Figure 7.
func Degree(s Source, id NodeID) int { return len(s.Out(id)) + len(s.In(id)) }

// FindNode returns the first node whose property key equals the string
// value, or InvalidID. It scans; use Lookup for indexed access.
func FindNode(s Source, key, value string) NodeID {
	n := s.NodeCount()
	for id := NodeID(0); id < NodeID(n); id++ {
		if v, ok := s.NodeProp(id, key); ok && v.Kind() == KindString && v.AsString() == value {
			return id
		}
	}
	return InvalidID
}

func eqFold(a, b string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := 0; i < len(a); i++ {
		ca, cb := a[i], b[i]
		if ca == cb {
			continue
		}
		if 'A' <= ca && ca <= 'Z' {
			ca += 'a' - 'A'
		}
		if 'A' <= cb && cb <= 'Z' {
			cb += 'a' - 'A'
		}
		if ca != cb {
			return false
		}
	}
	return true
}
