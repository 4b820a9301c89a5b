package store

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"
	"strings"

	"frappe/internal/graph"
	"frappe/internal/model"
)

// DB is a read-only view over a store directory. It implements
// graph.Source, with every node, relationship, property, string and index
// access going through per-file page caches. DropCaches resets them to
// model the paper's cold-cache runs.
type DB struct {
	dir                  string
	nodeCount, edgeCount int64

	nodes *pager
	rels  *pager
	props *pager
	strs  *pager
	index *pager

	formatVersion uint32 // on-disk format version (legacy v1 has no checksums)

	// Token tables (tiny; loaded eagerly, as Neo4j loads token stores).
	keys       []string
	keyByLower map[string]uint16
	nodeTypes  []model.NodeType
	edgeTypes  []model.EdgeType

	indexEntries int // term count in the index file
}

// Options tune the page cache.
type Options struct {
	PageSize   int // bytes per page; default DefaultPageSize
	CachePages int // pages cached per store file; default DefaultCachePages

	// CacheShards sets the number of lock stripes per store file's page
	// cache (default DefaultCacheShards; rounded up to a power of two).
	// One shard reproduces the old single-mutex pager, useful as a
	// contention baseline in benchmarks.
	CacheShards int

	// WrapReader, when non-nil, interposes on the raw reads of each
	// store file — the fault-injection hook. It receives the file path
	// and the real reader and returns the reader the page cache should
	// use (return r unchanged, or nil, for no wrapping).
	WrapReader func(path string, r io.ReaderAt) io.ReaderAt
}

// Open opens the store in dir for reading.
func Open(dir string) (*DB, error) { return OpenOptions(dir, Options{}) }

// OpenOptions opens the store with explicit page-cache settings.
func OpenOptions(dir string, opt Options) (*DB, error) {
	if opt.PageSize <= 0 {
		opt.PageSize = DefaultPageSize
	}
	if opt.CachePages <= 0 {
		opt.CachePages = DefaultCachePages
	}
	db := &DB{dir: dir}
	ok := false
	defer func() {
		if !ok {
			db.Close()
		}
	}()

	meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, err
	}
	if len(meta) < metaSizeV1 || binary.LittleEndian.Uint32(meta[0:4]) != metaMagic {
		return nil, fmt.Errorf("store: %s is not a frappe store: %w", dir, ErrBadMagic)
	}
	switch v := binary.LittleEndian.Uint32(meta[4:8]); v {
	case legacyFormatVer:
		db.formatVersion = v
	case formatVer:
		db.formatVersion = v
		if len(meta) < metaSizeV2 {
			return nil, truncatedf(MetaFile, "meta file is %d bytes, want %d", len(meta), metaSizeV2)
		}
		want := binary.LittleEndian.Uint32(meta[24:28])
		if got := crc32.Checksum(meta[:metaSizeV1], castagnoli); got != want {
			return nil, corruptf(MetaFile, -1, "meta checksum mismatch: computed %08x, recorded %08x", got, want)
		}
	default:
		return nil, fmt.Errorf("store: format version %d: %w", v, ErrBadVersion)
	}
	db.nodeCount = int64(binary.LittleEndian.Uint64(meta[8:16]))
	db.edgeCount = int64(binary.LittleEndian.Uint64(meta[16:24]))

	wantCRC := db.formatVersion >= formatVer
	for _, p := range []struct {
		name string
		dst  **pager
	}{
		{NodeFile, &db.nodes},
		{RelFile, &db.rels},
		{PropFile, &db.props},
		{StringFile, &db.strs},
		{IndexFile, &db.index},
	} {
		pg, err := openPager(filepath.Join(dir, p.name), opt.PageSize, opt.CachePages, opt.CacheShards, wantCRC, opt.WrapReader)
		if err != nil {
			return nil, err
		}
		*p.dst = pg
	}

	if db.nodes.Len() < db.nodeCount*nodeRecordSize {
		return nil, truncatedf(NodeFile, "file holds %d bytes, %d nodes need %d",
			db.nodes.Len(), db.nodeCount, db.nodeCount*nodeRecordSize)
	}
	if db.rels.Len() < db.edgeCount*relRecordSize {
		return nil, truncatedf(RelFile, "file holds %d bytes, %d relationships need %d",
			db.rels.Len(), db.edgeCount, db.edgeCount*relRecordSize)
	}

	if err := db.loadKeys(); err != nil {
		return nil, err
	}
	if err := db.loadIndexHeader(); err != nil {
		return nil, err
	}
	ok = true
	return db, nil
}

func (db *DB) loadKeys() error {
	path := filepath.Join(db.dir, KeyFile)
	raw, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	// The key table is loaded eagerly rather than paged, so it is
	// verified whole against its sidecar here.
	if db.formatVersion >= formatVer {
		if err := verifyFileBytes(path, raw); err != nil {
			return err
		}
	}
	br := bytes.NewReader(raw)
	read := func() ([]string, error) {
		var u32 [4]byte
		if _, err := io.ReadFull(br, u32[:]); err != nil {
			return nil, err
		}
		n := binary.LittleEndian.Uint32(u32[:])
		out := make([]string, n)
		var u16 [2]byte
		for i := range out {
			if _, err := io.ReadFull(br, u16[:]); err != nil {
				return nil, err
			}
			b := make([]byte, binary.LittleEndian.Uint16(u16[:]))
			if _, err := io.ReadFull(br, b); err != nil {
				return nil, err
			}
			out[i] = string(b)
		}
		return out, nil
	}
	if db.keys, err = read(); err != nil {
		return corruptf(KeyFile, -1, "bad key table: %v", err)
	}
	nts, err := read()
	if err != nil {
		return corruptf(KeyFile, -1, "bad node-type table: %v", err)
	}
	ets, err := read()
	if err != nil {
		return corruptf(KeyFile, -1, "bad edge-type table: %v", err)
	}
	db.nodeTypes = make([]model.NodeType, len(nts))
	for i, s := range nts {
		db.nodeTypes[i] = model.NodeType(s)
	}
	db.edgeTypes = make([]model.EdgeType, len(ets))
	for i, s := range ets {
		db.edgeTypes[i] = model.EdgeType(s)
	}
	db.keyByLower = make(map[string]uint16, len(db.keys))
	for i, k := range db.keys {
		db.keyByLower[strings.ToLower(k)] = uint16(i)
	}
	return nil
}

func (db *DB) loadIndexHeader() error {
	var hdr [8]byte
	if err := db.index.ReadAt(hdr[:], 0); err != nil {
		return err
	}
	if binary.LittleEndian.Uint32(hdr[0:4]) != indexMagic {
		return &CorruptionError{File: IndexFile, Chunk: -1, Detail: "bad index magic", Class: ErrBadMagic}
	}
	db.indexEntries = int(binary.LittleEndian.Uint32(hdr[4:8]))
	return nil
}

// Close releases all file handles.
func (db *DB) Close() error {
	var first error
	for _, p := range []*pager{db.nodes, db.rels, db.props, db.strs, db.index} {
		if p == nil {
			continue
		}
		if err := p.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// DropCaches empties every page cache: the next reads hit the files, as
// in the paper's cold runs.
func (db *DB) DropCaches() {
	for _, p := range []*pager{db.nodes, db.rels, db.props, db.strs, db.index} {
		p.Drop()
	}
}

// Stats reports page-cache counters per store file. Safe to call while
// other goroutines read through the caches: every counter is sampled
// with an atomic load, so no value is ever torn. Counters are sampled
// independently, so a read in flight at snapshot time may appear in
// Misses before its eventual Hit shows up — sums converge once traffic
// quiesces.
func (db *DB) Stats() map[string]CacheStats {
	return map[string]CacheStats{
		"nodes":         db.nodes.Stats(),
		"relationships": db.rels.Stats(),
		"properties":    db.props.Stats(),
		"strings":       db.strs.Stats(),
		"index":         db.index.Stats(),
	}
}

// PageSize reports the page-cache page size in bytes — resource
// attribution (trace spans) converts page faults into byte counts
// with it.
func (db *DB) PageSize() int {
	if db == nil || db.nodes == nil {
		return DefaultPageSize
	}
	return db.nodes.pageSize
}

// --- graph.Source implementation ---

// NodeCount implements graph.Source.
func (db *DB) NodeCount() int64 { return db.nodeCount }

// EdgeCount implements graph.Source.
func (db *DB) EdgeCount() int64 { return db.edgeCount }

type nodeRec struct {
	typ       uint16
	propCount uint32
	propOff   int64
	firstOut  uint64
	firstIn   uint64
}

func (db *DB) readNode(id graph.NodeID) nodeRec {
	var buf [nodeRecordSize]byte
	if err := db.nodes.ReadAt(buf[:], int64(id)*nodeRecordSize); err != nil {
		panic(fmt.Errorf("store: node %d: %w", id, err))
	}
	return nodeRec{
		typ:       binary.LittleEndian.Uint16(buf[0:2]),
		propCount: binary.LittleEndian.Uint32(buf[4:8]),
		propOff:   int64(binary.LittleEndian.Uint64(buf[8:16])),
		firstOut:  binary.LittleEndian.Uint64(buf[16:24]),
		firstIn:   binary.LittleEndian.Uint64(buf[24:32]),
	}
}

type relRec struct {
	from, to  graph.NodeID
	typ       uint16
	propCount uint32
	propOff   int64
	nextOut   uint64
	nextIn    uint64
}

func (db *DB) readRel(id graph.EdgeID) relRec {
	var buf [relRecordSize]byte
	if err := db.rels.ReadAt(buf[:], int64(id)*relRecordSize); err != nil {
		panic(fmt.Errorf("store: relationship %d: %w", id, err))
	}
	return relRec{
		from:      graph.NodeID(binary.LittleEndian.Uint64(buf[0:8])),
		to:        graph.NodeID(binary.LittleEndian.Uint64(buf[8:16])),
		typ:       binary.LittleEndian.Uint16(buf[16:18]),
		propCount: binary.LittleEndian.Uint32(buf[20:24]),
		propOff:   int64(binary.LittleEndian.Uint64(buf[24:32])),
		nextOut:   binary.LittleEndian.Uint64(buf[32:40]),
		nextIn:    binary.LittleEndian.Uint64(buf[40:48]),
	}
}

func (db *DB) readString(off int64, n int) string {
	b := make([]byte, n)
	if err := db.strs.ReadAt(b, off); err != nil {
		panic(fmt.Errorf("store: string at %d: %w", off, err))
	}
	return string(b)
}

func (db *DB) readPropValue(rec []byte) (key string, v graph.Value) {
	keyID := binary.LittleEndian.Uint16(rec[0:2])
	kind := rec[2]
	aux := binary.LittleEndian.Uint32(rec[4:8])
	payload := binary.LittleEndian.Uint64(rec[8:16])
	key = db.keys[keyID]
	switch kind {
	case propKindInt:
		v = graph.Int(int64(payload))
	case propKindBool:
		v = graph.Bool(payload != 0)
	case propKindString:
		v = graph.Str(db.readString(int64(payload), int(aux)))
	}
	return key, v
}

// findProp scans a property chain for the key (case-insensitive).
func (db *DB) findProp(off int64, count uint32, key string) (graph.Value, bool) {
	keyID, ok := db.keyByLower[strings.ToLower(key)]
	if !ok {
		return graph.Value{}, false
	}
	var buf [propRecordSize]byte
	for i := uint32(0); i < count; i++ {
		if err := db.props.ReadAt(buf[:], off+int64(i)*propRecordSize); err != nil {
			panic(fmt.Errorf("store: property at %d: %w", off, err))
		}
		if binary.LittleEndian.Uint16(buf[0:2]) == keyID {
			_, v := db.readPropValue(buf[:])
			return v, true
		}
	}
	return graph.Value{}, false
}

func (db *DB) allProps(off int64, count uint32) graph.Props {
	if count == 0 {
		return nil
	}
	ps := make(graph.Props, 0, count)
	var buf [propRecordSize]byte
	for i := uint32(0); i < count; i++ {
		if err := db.props.ReadAt(buf[:], off+int64(i)*propRecordSize); err != nil {
			panic(fmt.Errorf("store: property at %d: %w", off, err))
		}
		k, v := db.readPropValue(buf[:])
		ps = append(ps, graph.Prop{Key: k, Val: v})
	}
	return ps
}

// NodeType implements graph.Source.
func (db *DB) NodeType(id graph.NodeID) model.NodeType {
	return db.nodeTypes[db.readNode(id).typ]
}

// NodeHasLabel implements graph.Source.
func (db *DB) NodeHasLabel(id graph.NodeID, label string) bool {
	return graph.HasLabel(db.NodeType(id), label)
}

// NodeProp implements graph.Source.
func (db *DB) NodeProp(id graph.NodeID, key string) (graph.Value, bool) {
	rec := db.readNode(id)
	if strings.EqualFold(key, model.PropType) {
		return graph.Str(string(db.nodeTypes[rec.typ])), true
	}
	return db.findProp(rec.propOff, rec.propCount, key)
}

// NodeProps implements graph.Source.
func (db *DB) NodeProps(id graph.NodeID) graph.Props {
	rec := db.readNode(id)
	return db.allProps(rec.propOff, rec.propCount)
}

// EdgeEnds implements graph.Source.
func (db *DB) EdgeEnds(id graph.EdgeID) (graph.NodeID, graph.NodeID, model.EdgeType) {
	r := db.readRel(id)
	return r.from, r.to, db.edgeTypes[r.typ]
}

// EdgeProp implements graph.Source.
func (db *DB) EdgeProp(id graph.EdgeID, key string) (graph.Value, bool) {
	r := db.readRel(id)
	if strings.EqualFold(key, model.PropType) {
		return graph.Str(string(db.edgeTypes[r.typ])), true
	}
	return db.findProp(r.propOff, r.propCount, key)
}

// EdgeProps implements graph.Source.
func (db *DB) EdgeProps(id graph.EdgeID) graph.Props {
	r := db.readRel(id)
	return db.allProps(r.propOff, r.propCount)
}

// Out implements graph.Source by walking the outgoing relationship chain.
func (db *DB) Out(id graph.NodeID) []graph.EdgeID {
	var out []graph.EdgeID
	ref := db.readNode(id).firstOut
	for ref != nilRef {
		e := graph.EdgeID(ref - 1)
		out = append(out, e)
		ref = db.readRel(e).nextOut
	}
	return out
}

// In implements graph.Source by walking the incoming relationship chain.
func (db *DB) In(id graph.NodeID) []graph.EdgeID {
	var in []graph.EdgeID
	ref := db.readNode(id).firstIn
	for ref != nilRef {
		e := graph.EdgeID(ref - 1)
		in = append(in, e)
		ref = db.readRel(e).nextIn
	}
	return in
}

// Lookup implements graph.Source by evaluating q against the on-disk
// index (binary search for exact terms, key-range scan for wildcards).
func (db *DB) Lookup(q string) ([]graph.NodeID, error) {
	parsed, err := graph.ParseIndexQuery(q)
	if err != nil {
		return nil, err
	}
	return graph.EvalIndexQuery(parsed, (*diskIndex)(db)), nil
}

// diskIndex adapts DB's index file to graph.IndexTermSource.
type diskIndex DB

func (di *diskIndex) db() *DB { return (*DB)(di) }

func (di *diskIndex) entryOffset(i int) int64 {
	var u64 [8]byte
	if err := di.db().index.ReadAt(u64[:], 8+int64(i)*8); err != nil {
		panic(fmt.Errorf("store: index offset %d: %w", i, err))
	}
	return int64(binary.LittleEndian.Uint64(u64[:]))
}

// entry reads the key and value of entry i into buf and returns them
// as slices of it, the grown buffer for the caller's next call, and the
// location of the entry's posting list. Callers compare the bytes in
// place, so probing an entry allocates nothing once buf has grown.
func (di *diskIndex) entry(i int, buf []byte) (key, value, scratch []byte, idCount int, idsOff int64) {
	db := di.db()
	off := di.entryOffset(i)
	read := func(n int) []byte {
		start := len(buf)
		buf = append(buf, make([]byte, n)...)
		if err := db.index.ReadAt(buf[start:], off); err != nil {
			panic(err)
		}
		off += int64(n)
		return buf[start:]
	}
	buf = buf[:0]
	kl := int(binary.LittleEndian.Uint16(read(2)))
	kStart := len(buf)
	read(kl)
	vl := int(binary.LittleEndian.Uint16(read(2)))
	vStart := len(buf)
	read(vl)
	n := int(binary.LittleEndian.Uint32(read(4)))
	return buf[kStart : kStart+kl], buf[vStart : vStart+vl], buf, n, off
}

// postings appends the idCount node IDs stored at idsOff to dst.
func (di *diskIndex) postings(dst []graph.NodeID, idCount int, idsOff int64) []graph.NodeID {
	buf := make([]byte, 8*idCount)
	if err := di.db().index.ReadAt(buf, idsOff); err != nil {
		panic(err)
	}
	for i := 0; i < idCount; i++ {
		dst = append(dst, graph.NodeID(binary.LittleEndian.Uint64(buf[i*8:i*8+8])))
	}
	return dst
}

// lowerBound returns the first entry index whose (key, value) is >= the
// target, comparing keys first.
func (di *diskIndex) lowerBound(key, value string) int {
	lo, hi := 0, di.db().indexEntries
	var buf []byte
	for lo < hi {
		mid := (lo + hi) / 2
		k, v, b, _, _ := di.entry(mid, buf)
		buf = b
		if string(k) < key || (string(k) == key && string(v) < value) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	return lo
}

// Exact implements graph.IndexTermSource.
func (di *diskIndex) Exact(key, value string) []graph.NodeID {
	key = strings.ToLower(key)
	i := di.lowerBound(key, value)
	if i >= di.db().indexEntries {
		return nil
	}
	k, v, _, n, off := di.entry(i, nil)
	if string(k) != key || string(v) != value {
		return nil
	}
	return di.postings(make([]graph.NodeID, 0, n), n, off)
}

// Prefix implements graph.IndexTermSource: it seeks the first term at
// or after (key, prefix) and stops at the first term that does not
// start with prefix. A term's value becomes a string only for keep.
func (di *diskIndex) Prefix(dst []graph.NodeID, key, prefix string, keep func(string) bool) []graph.NodeID {
	key = strings.ToLower(key)
	var buf []byte
	for i := di.lowerBound(key, prefix); i < di.db().indexEntries; i++ {
		k, v, b, n, off := di.entry(i, buf)
		buf = b
		if string(k) != key || len(v) < len(prefix) || string(v[:len(prefix)]) != prefix {
			break
		}
		if keep == nil || keep(string(v)) {
			dst = di.postings(dst, n, off)
		}
	}
	return dst
}
