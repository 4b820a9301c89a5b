package store

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"sort"
	"strings"

	"frappe/internal/atomicfile"
	"frappe/internal/graph"
	"frappe/internal/model"
)

// Write persists g into dir, creating it if needed. Existing store files
// in dir are replaced in one crash-consistent commit: a crash at any
// instant leaves dir either fully the old store or fully the new one
// (see internal/atomicfile). The resulting store is opened with Open.
func Write(dir string, g *graph.Graph) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	c, err := atomicfile.NewCommit(dir)
	if err != nil {
		return err
	}
	defer c.Abort()
	if err := StageTo(c, g); err != nil {
		return err
	}
	return c.Publish()
}

// StageTo writes g's store files (plus checksum sidecars) into an open
// commit without publishing, so callers can bundle the store with other
// artifacts — delta session state, the update journal — into one atomic
// unit (see delta.PersistUpdate).
func StageTo(c *atomicfile.Commit, g *graph.Graph) error {
	w := &writer{g: g, path: c.Path}
	if err := w.run(); err != nil {
		return err
	}
	c.Add(MetaFile)
	for _, name := range dataFiles {
		c.Add(name)
		c.Add(name + ChecksumSuffix)
	}
	return nil
}

type writer struct {
	g *graph.Graph
	// path resolves a store file name to the path it is written at (a
	// commit's staging area).
	path func(name string) string

	keyIDs   map[string]uint16 // canonical key -> id
	keys     []string
	nodeTyps map[model.NodeType]uint16
	nodeTypL []string
	edgeTyps map[model.EdgeType]uint16
	edgeTypL []string

	strOffs map[string]int64
	strNext int64
	strW    *bufio.Writer

	propW    *bufio.Writer
	propNext int64

	// locKeyIDs caches the key ID of each positional key, assigned on
	// first use like any other key so the key table keeps its order.
	locKeyIDs [graph.NumLocKeys]uint16
	locKeySet uint16
	// Record buffers, owned here so no call allocates one.
	props   []byte
	nodeRec [nodeRecordSize]byte
	relRec  [relRecordSize]byte
}

func (w *writer) run() (err error) {
	w.keyIDs = make(map[string]uint16)
	w.nodeTyps = make(map[model.NodeType]uint16)
	w.edgeTyps = make(map[model.EdgeType]uint16)
	w.strOffs = make(map[string]int64)

	strF, err := os.Create(w.path(StringFile))
	if err != nil {
		return err
	}
	defer strF.Close()
	w.strW = bufio.NewWriter(strF)

	propF, err := os.Create(w.path(PropFile))
	if err != nil {
		return err
	}
	defer propF.Close()
	w.propW = bufio.NewWriter(propF)

	if err := w.writeNodes(); err != nil {
		return err
	}
	if err := w.writeRels(); err != nil {
		return err
	}
	if err := w.propW.Flush(); err != nil {
		return err
	}
	if err := w.strW.Flush(); err != nil {
		return err
	}
	if err := w.writeKeys(); err != nil {
		return err
	}
	if err := w.writeIndex(); err != nil {
		return err
	}
	if err := w.writeMeta(); err != nil {
		return err
	}
	// Checksum sidecars last, once every data file is final. The meta
	// file carries its own CRC instead of a sidecar.
	for _, name := range dataFiles {
		if err := writeChecksums(w.path(name)); err != nil {
			return err
		}
	}
	return nil
}

func (w *writer) keyID(key string) uint16 {
	canon := strings.ToUpper(key)
	if id, ok := w.keyIDs[canon]; ok {
		return id
	}
	id := uint16(len(w.keys))
	w.keyIDs[canon] = id
	w.keys = append(w.keys, canon)
	return id
}

func (w *writer) nodeTypeID(t model.NodeType) uint16 {
	if id, ok := w.nodeTyps[t]; ok {
		return id
	}
	id := uint16(len(w.nodeTypL))
	w.nodeTyps[t] = id
	w.nodeTypL = append(w.nodeTypL, string(t))
	return id
}

func (w *writer) edgeTypeID(t model.EdgeType) uint16 {
	if id, ok := w.edgeTyps[t]; ok {
		return id
	}
	id := uint16(len(w.edgeTypL))
	w.edgeTyps[t] = id
	w.edgeTypL = append(w.edgeTypL, string(t))
	return id
}

func (w *writer) internString(s string) (int64, error) {
	if off, ok := w.strOffs[s]; ok {
		return off, nil
	}
	off := w.strNext
	n, err := w.strW.WriteString(s)
	if err != nil {
		return 0, err
	}
	w.strNext += int64(n)
	w.strOffs[s] = off
	return off, nil
}

// locKeyID is keyID for a positional key.
func (w *writer) locKeyID(k graph.LocKey) uint16 {
	if w.locKeySet&(1<<k) == 0 {
		w.locKeyIDs[k] = w.keyID(graph.LocKeys[k])
		w.locKeySet |= 1 << k
	}
	return w.locKeyIDs[k]
}

func appendPropRecord(b []byte, key uint16, kind byte, aux uint32, payload uint64) []byte {
	b = binary.LittleEndian.AppendUint16(b, key)
	b = append(b, kind, 0)
	b = binary.LittleEndian.AppendUint32(b, aux)
	return binary.LittleEndian.AppendUint64(b, payload)
}

// writeProps appends one property record per property, loc's first and
// in the order EdgeProps lists them, and returns the byte offset of the
// first record.
func (w *writer) writeProps(loc graph.Loc, ps graph.Props) (off int64, count uint32, err error) {
	b := w.props[:0]
	if !loc.Empty() {
		for k := graph.LocKey(0); k < graph.NumLocKeys; k++ {
			if v, ok := loc.Get(k); ok {
				b = appendPropRecord(b, w.locKeyID(k), propKindInt, 0, uint64(int64(v)))
			}
		}
	}
	for _, p := range ps {
		switch p.Val.Kind() {
		case graph.KindInt:
			b = appendPropRecord(b, w.keyID(p.Key), propKindInt, 0, uint64(p.Val.AsInt()))
		case graph.KindBool:
			b = appendPropRecord(b, w.keyID(p.Key), propKindBool, 0, uint64(p.Val.AsInt()))
		case graph.KindString:
			s := p.Val.AsString()
			so, err := w.internString(s)
			if err != nil {
				return 0, 0, err
			}
			b = appendPropRecord(b, w.keyID(p.Key), propKindString, uint32(len(s)), uint64(so))
		default:
			// nil properties are not stored
		}
	}
	w.props = b
	if _, err := w.propW.Write(b); err != nil {
		return 0, 0, err
	}
	off = w.propNext
	w.propNext += int64(len(b))
	return off, uint32(len(b) / propRecordSize), nil
}

func (w *writer) writeNodes() error {
	f, err := os.Create(w.path(NodeFile))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	rec := w.nodeRec[:]
	n := w.g.NodeCount()
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		off, cnt, err := w.writeProps(graph.Loc{}, w.g.NodeProps(id))
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint16(rec[0:2], w.nodeTypeID(w.g.NodeType(id)))
		binary.LittleEndian.PutUint16(rec[2:4], 0)
		binary.LittleEndian.PutUint32(rec[4:8], cnt)
		binary.LittleEndian.PutUint64(rec[8:16], uint64(off))
		binary.LittleEndian.PutUint64(rec[16:24], chainHead(w.g.Out(id)))
		binary.LittleEndian.PutUint64(rec[24:32], chainHead(w.g.In(id)))
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func chainHead(edges []graph.EdgeID) uint64 {
	if len(edges) == 0 {
		return nilRef
	}
	return uint64(edges[0]) + 1
}

func (w *writer) writeRels() error {
	// Adjacency is stored as linked chains threaded through relationship
	// records (as in Neo4j): nextOut[e] is the edge after e in Out(from(e)).
	e := w.g.EdgeCount()
	nextOut := make([]uint64, e)
	nextIn := make([]uint64, e)
	n := w.g.NodeCount()
	for id := graph.NodeID(0); id < graph.NodeID(n); id++ {
		out := w.g.Out(id)
		for i := 0; i+1 < len(out); i++ {
			nextOut[out[i]] = uint64(out[i+1]) + 1
		}
		in := w.g.In(id)
		for i := 0; i+1 < len(in); i++ {
			nextIn[in[i]] = uint64(in[i+1]) + 1
		}
	}

	f, err := os.Create(w.path(RelFile))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	rec := w.relRec[:]
	for id := graph.EdgeID(0); id < graph.EdgeID(e); id++ {
		from, to, typ := w.g.EdgeEnds(id)
		off, cnt, err := w.writeProps(w.g.EdgeLoc(id))
		if err != nil {
			return err
		}
		binary.LittleEndian.PutUint64(rec[0:8], uint64(from))
		binary.LittleEndian.PutUint64(rec[8:16], uint64(to))
		binary.LittleEndian.PutUint16(rec[16:18], w.edgeTypeID(typ))
		binary.LittleEndian.PutUint16(rec[18:20], 0)
		binary.LittleEndian.PutUint32(rec[20:24], cnt)
		binary.LittleEndian.PutUint64(rec[24:32], uint64(off))
		binary.LittleEndian.PutUint64(rec[32:40], nextOut[id])
		binary.LittleEndian.PutUint64(rec[40:48], nextIn[id])
		if _, err := bw.Write(rec); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func writeStringTable(bw *bufio.Writer, items []string) error {
	var u32 [4]byte
	binary.LittleEndian.PutUint32(u32[:], uint32(len(items)))
	if _, err := bw.Write(u32[:]); err != nil {
		return err
	}
	var u16 [2]byte
	for _, s := range items {
		if len(s) > 0xFFFF {
			return fmt.Errorf("store: name too long (%d bytes)", len(s))
		}
		binary.LittleEndian.PutUint16(u16[:], uint16(len(s)))
		if _, err := bw.Write(u16[:]); err != nil {
			return err
		}
		if _, err := bw.WriteString(s); err != nil {
			return err
		}
	}
	return nil
}

func (w *writer) writeKeys() error {
	f, err := os.Create(w.path(KeyFile))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	for _, tbl := range [][]string{w.keys, w.nodeTypL, w.edgeTypL} {
		if err := writeStringTable(bw, tbl); err != nil {
			return err
		}
	}
	return bw.Flush()
}

func (w *writer) writeIndex() error {
	type entry struct {
		key, value string
		ids        []graph.NodeID
	}
	var entries []entry
	w.g.Index().Entries(func(key, value string, ids []graph.NodeID) {
		entries = append(entries, entry{key, value, ids})
	})
	sort.Slice(entries, func(i, j int) bool {
		if entries[i].key != entries[j].key {
			return entries[i].key < entries[j].key
		}
		return entries[i].value < entries[j].value
	})

	// Compute offsets: header = magic(4) + count(4), then count*8 offsets.
	headerSize := int64(8 + 8*len(entries))
	offs := make([]int64, len(entries))
	next := headerSize
	for i, e := range entries {
		offs[i] = next
		next += 2 + int64(len(e.key)) + 2 + int64(len(e.value)) + 4 + 8*int64(len(e.ids))
	}

	f, err := os.Create(w.path(IndexFile))
	if err != nil {
		return err
	}
	defer f.Close()
	bw := bufio.NewWriter(f)
	var u32 [4]byte
	var u16 [2]byte
	var u64 [8]byte
	binary.LittleEndian.PutUint32(u32[:], indexMagic)
	bw.Write(u32[:])
	binary.LittleEndian.PutUint32(u32[:], uint32(len(entries)))
	bw.Write(u32[:])
	for _, o := range offs {
		binary.LittleEndian.PutUint64(u64[:], uint64(o))
		bw.Write(u64[:])
	}
	for _, e := range entries {
		binary.LittleEndian.PutUint16(u16[:], uint16(len(e.key)))
		bw.Write(u16[:])
		bw.WriteString(e.key)
		binary.LittleEndian.PutUint16(u16[:], uint16(len(e.value)))
		bw.Write(u16[:])
		bw.WriteString(e.value)
		binary.LittleEndian.PutUint32(u32[:], uint32(len(e.ids)))
		bw.Write(u32[:])
		for _, id := range e.ids {
			binary.LittleEndian.PutUint64(u64[:], uint64(id))
			bw.Write(u64[:])
		}
	}
	return bw.Flush()
}

func (w *writer) writeMeta() error {
	f, err := os.Create(w.path(MetaFile))
	if err != nil {
		return err
	}
	defer f.Close()
	var buf [metaSizeV2]byte
	binary.LittleEndian.PutUint32(buf[0:4], metaMagic)
	binary.LittleEndian.PutUint32(buf[4:8], formatVer)
	binary.LittleEndian.PutUint64(buf[8:16], uint64(w.g.NodeCount()))
	binary.LittleEndian.PutUint64(buf[16:24], uint64(w.g.EdgeCount()))
	binary.LittleEndian.PutUint32(buf[24:28], crc32.Checksum(buf[:metaSizeV1], castagnoli))
	_, err = f.Write(buf[:])
	return err
}
