package delta

import (
	"cmp"
	"encoding/binary"
	"hash/maphash"
	"slices"
	"strconv"
	"strings"

	"frappe/internal/graph"
	"frappe/internal/model"
)

// The update path diffs by hashed signatures instead of Compute's
// strings: every node and edge signature becomes one 128-bit value
// (maphash under two per-process random seeds), and the diff is a merge
// of two sorted hash lists. Each property is hashed where it sits and
// the property hashes are summed, so no per-property string is built
// and the result does not depend on property order. An int property is
// hashed by value with a fixed mix (a file ID through the hash of its
// file's path), so a positional property held in a graph.Loc and the
// same property read from a disk store as an Int hash alike without
// either being rendered. The counts equal Compute's (the equivalence
// tests hold them to it); they are reporting only, and nothing decides
// correctness on them. One corner differs: Compute renders an int and a
// string that print alike the same, this hash does not, and no key of
// the graph model holds both kinds.

var seedHi, seedLo = maphash.MakeSeed(), maphash.MakeSeed()

// sigHash is the 128-bit hash of one canonical signature.
type sigHash struct{ hi, lo uint64 }

func cmpSigHash(a, b sigHash) int {
	if c := cmp.Compare(a.hi, b.hi); c != 0 {
		return c
	}
	return cmp.Compare(a.lo, b.lo)
}

// sigSet holds one graph's node and edge signature hashes, each sorted,
// so two sets diff by a linear merge.
type sigSet struct {
	nodes, edges []sigHash
}

// diff counts what next gained and lost against s, like Compute.
func (s *sigSet) diff(next *sigSet) Diff {
	var d Diff
	d.NodesAdded, d.NodesRemoved = mergeCount(s.nodes, next.nodes)
	d.EdgesAdded, d.EdgesRemoved = mergeCount(s.edges, next.edges)
	return d
}

// mergeCount walks two sorted multisets and returns how many elements
// next has beyond old (added) and old beyond next (removed).
func mergeCount(old, next []sigHash) (added, removed int) {
	i, j := 0, 0
	for i < len(old) && j < len(next) {
		switch c := cmpSigHash(old[i], next[j]); {
		case c == 0:
			i++
			j++
		case c < 0:
			removed++
			i++
		default:
			added++
			j++
		}
	}
	return added + len(next) - j, removed + len(old) - i
}

// sigHasher renders signature parts into one reused buffer and hashes
// it, so hashing a graph allocates only its output slices.
type sigHasher struct {
	src graph.Source
	// g is src when it is an in-memory graph, whose edge Locs are
	// hashed without building a Props list.
	g *graph.Graph
	// pathHash maps every FILE_ID to the hash of its file's path;
	// noPath stands for an ID with no file node, which Compute renders
	// with an empty path.
	pathHash map[int64]uint64
	noPath   uint64
	keys     map[string]keyInfo
	locKeys  [graph.NumLocKeys]keyInfo
	buf      []byte
}

func newSigHasher(src graph.Source) *sigHasher {
	h := &sigHasher{src: src, keys: map[string]keyInfo{}, buf: make([]byte, 0, 256)}
	h.g, _ = src.(*graph.Graph)
	paths := filePaths(src)
	h.pathHash = make(map[int64]uint64, len(paths))
	for id, p := range paths {
		h.pathHash[id] = maphash.String(seedLo, p)
	}
	h.noPath = maphash.String(seedLo, "")
	for k, name := range graph.LocKeys {
		h.locKeys[k] = h.key(name)
	}
	return h
}

func (h *sigHasher) sum() sigHash {
	return sigHash{maphash.Bytes(seedHi, h.buf), maphash.Bytes(seedLo, h.buf)}
}

// appendValue renders v as graph.Value.String does.
func appendValue(b []byte, v graph.Value) []byte {
	switch v.Kind() {
	case graph.KindString:
		return append(b, v.AsString()...)
	case graph.KindInt:
		return strconv.AppendInt(b, v.AsInt(), 10)
	}
	return append(b, v.String()...)
}

// keyInfo is what a property key contributes to its property's hash:
// the hash of the upper-cased key, and whether its values are file IDs.
type keyInfo struct {
	h      uint64
	fileID bool
}

// key memoises keyInfo per key string; a graph uses a few dozen keys.
func (h *sigHasher) key(k string) keyInfo {
	if ki, ok := h.keys[k]; ok {
		return ki
	}
	up := strings.ToUpper(k)
	ki := keyInfo{maphash.String(seedHi, up), fileIDKeys[up]}
	h.keys[k] = ki
	return ki
}

// props hashes each property and sums the hashes: the sum is the same
// for any order of the same properties. A string or bool property is
// hashed as Compute renders it (upper-cased key, value); an int by
// intHash.
func (h *sigHasher) props(ps graph.Props) sigHash {
	var s sigHash
	for _, p := range ps {
		ki := h.key(p.Key)
		if p.Val.Kind() == graph.KindInt {
			s.add(h.intHash(ki, p.Val.AsInt()))
			continue
		}
		h.buf = binary.LittleEndian.AppendUint64(h.buf[:0], ki.h)
		h.buf = appendValue(h.buf, p.Val)
		s.add(maphash.Bytes(seedHi, h.buf))
	}
	return s
}

// loc adds the hash of each positional property in loc to s, as props
// would for the same keys held as Int properties.
func (h *sigHasher) loc(s *sigHash, loc graph.Loc) {
	for k := graph.LocKey(0); k < graph.NumLocKeys; k++ {
		if v, ok := loc.Get(k); ok {
			s.add(h.intHash(h.locKeys[k], int64(v)))
		}
	}
}

// intHash hashes an int property by value, a file ID by its file's path.
func (h *sigHasher) intHash(ki keyInfo, v int64) uint64 {
	x := uint64(v)
	if ki.fileID {
		var ok bool
		if x, ok = h.pathHash[v]; !ok {
			x = h.noPath
		}
	}
	return mix64(ki.h ^ x*0x9e3779b97f4a7c15)
}

// add folds one property hash into s. The low half sums a nonlinear mix
// of it, so two property multisets that collide in one sum almost never
// collide in both.
func (s *sigHash) add(x uint64) {
	s.hi += x
	s.lo += mix64(x)
}

// mix64 is the splitmix64 finaliser, a bijective bit mixer.
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	return x ^ x>>31
}

func appendSigHash(b []byte, x sigHash) []byte {
	b = binary.LittleEndian.AppendUint64(b, x.hi)
	return binary.LittleEndian.AppendUint64(b, x.lo)
}

// node hashes what nodeSig renders: the concrete type, the properties,
// and the defining location from the first incoming file_contains edge.
func (h *sigHasher) node(id graph.NodeID) sigHash {
	ps := h.props(h.src.NodeProps(id))
	h.buf = append(h.buf[:0], h.src.NodeType(id)...)
	h.buf = appendSigHash(append(h.buf, 0), ps)
	for _, eid := range h.src.In(id) {
		from, _, et := h.src.EdgeEnds(eid)
		if et != model.EdgeFileContains {
			continue
		}
		h.buf = append(h.buf, '@')
		if p, ok := h.src.NodeProp(from, model.PropName); ok {
			h.buf = append(h.buf, p.AsString()...)
		}
		for _, key := range [...]string{model.PropNameStartLine, model.PropNameStartCol} {
			h.buf = append(h.buf, 0)
			if v, ok := h.src.EdgeProp(eid, key); ok {
				h.buf = appendValue(append(h.buf, 1), v)
			}
		}
		break
	}
	return h.sum()
}

// hashSignatures hashes every node and edge signature of src.
func hashSignatures(src graph.Source) *sigSet {
	h := newSigHasher(src)
	n, e := src.NodeCount(), src.EdgeCount()
	byID := make([]sigHash, n)
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		byID[id] = h.node(id)
	}
	edges := make([]sigHash, e)
	for id := graph.EdgeID(0); id < graph.EdgeID(e); id++ {
		from, to, et := src.EdgeEnds(id)
		var ps sigHash
		if h.g != nil {
			loc, rest := h.g.EdgeLoc(id)
			ps = h.props(rest)
			h.loc(&ps, loc)
		} else {
			ps = h.props(src.EdgeProps(id))
		}
		h.buf = appendSigHash(h.buf[:0], byID[from])
		h.buf = append(append(h.buf, et...), 0)
		h.buf = appendSigHash(h.buf, ps)
		h.buf = appendSigHash(h.buf, byID[to])
		edges[id] = h.sum()
	}
	sortSigHashes(byID)
	sortSigHashes(edges)
	return &sigSet{nodes: byID, edges: edges}
}

// radixMin is the length below which sortSigHashes leaves the work to
// slices.SortFunc; the radix sort's eight fixed passes cost more there.
const radixMin = 256

// sortSigHashes sorts xs by (hi, lo): an LSD radix sort on hi, one byte
// per pass, then every run of equal hi ordered by lo. A pass whose byte
// is the same in every element is skipped.
func sortSigHashes(xs []sigHash) {
	if len(xs) < radixMin {
		slices.SortFunc(xs, cmpSigHash)
		return
	}
	var counts [8][256]int
	for _, x := range xs {
		for p := range counts {
			counts[p][byte(x.hi>>(8*p))]++
		}
	}
	src, dst := xs, make([]sigHash, len(xs))
	for p := range counts {
		c, shift := &counts[p], 8*p
		if c[byte(src[0].hi>>shift)] == len(src) {
			continue
		}
		next := 0
		for b, n := range c {
			c[b], next = next, next+n
		}
		for _, x := range src {
			b := byte(x.hi >> shift)
			dst[c[b]] = x
			c[b]++
		}
		src, dst = dst, src
	}
	if &src[0] != &xs[0] {
		copy(xs, src)
	}
	for i := 0; i < len(xs); {
		j := i + 1
		for j < len(xs) && xs[j].hi == xs[i].hi {
			j++
		}
		if j-i > 1 {
			slices.SortFunc(xs[i:j], cmpSigHash)
		}
		i = j
	}
}
