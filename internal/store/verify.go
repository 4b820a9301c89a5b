package store

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
)

// FileCheck is the verification result for one store file.
type FileCheck struct {
	Name   string
	Bytes  int64
	Chunks int   // checksum chunks verified
	OK     bool  // all checks for this file passed
	Err    error // first failure, nil when OK
}

// VerifyReport is the outcome of fscking a store directory.
type VerifyReport struct {
	Dir           string
	FormatVersion uint32
	Nodes, Edges  int64
	Files         []FileCheck
	Problems      []error
}

// OK reports whether the store passed every check.
func (r *VerifyReport) OK() bool { return len(r.Problems) == 0 }

func (r *VerifyReport) addFile(fc FileCheck) {
	r.Files = append(r.Files, fc)
	if !fc.OK {
		r.Problems = append(r.Problems, fmt.Errorf("%s: %w", fc.Name, fc.Err))
	}
}

// Verify fscks the store in dir: meta magic/version/self-checksum, every
// data file's checksum sidecar (all chunks re-hashed), size consistency
// with the recorded node/relationship counts, record-level structural
// sanity (property offsets and chain references in bounds), and the
// index header. It reads every byte of the store exactly once per file
// and never mutates anything. A non-nil error means verification could
// not even start (e.g. the directory does not exist); corruption is
// reported through the report's Problems instead.
func Verify(dir string) (*VerifyReport, error) {
	r := &VerifyReport{Dir: dir}

	meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return nil, err
	}
	mc := FileCheck{Name: MetaFile, Bytes: int64(len(meta)), OK: true}
	switch {
	case len(meta) < metaSizeV1 || binary.LittleEndian.Uint32(meta[0:4]) != metaMagic:
		mc.OK, mc.Err = false, &CorruptionError{File: MetaFile, Chunk: -1, Detail: "bad magic", Class: ErrBadMagic}
	default:
		r.FormatVersion = binary.LittleEndian.Uint32(meta[4:8])
		r.Nodes = int64(binary.LittleEndian.Uint64(meta[8:16]))
		r.Edges = int64(binary.LittleEndian.Uint64(meta[16:24]))
		switch r.FormatVersion {
		case legacyFormatVer:
			// v1: no self-checksum to verify.
		case formatVer:
			if len(meta) < metaSizeV2 {
				mc.OK, mc.Err = false, truncatedf(MetaFile, "meta file is %d bytes, want %d", len(meta), metaSizeV2)
			} else if got, want := crc32.Checksum(meta[:metaSizeV1], castagnoli), binary.LittleEndian.Uint32(meta[24:28]); got != want {
				mc.OK, mc.Err = false, corruptf(MetaFile, -1, "meta checksum mismatch: computed %08x, recorded %08x", got, want)
			}
		default:
			mc.OK, mc.Err = false, fmt.Errorf("format version %d: %w", r.FormatVersion, ErrBadVersion)
		}
	}
	r.addFile(mc)

	wantCRC := r.FormatVersion >= formatVer
	sizes := map[string]int64{}
	for _, name := range dataFiles {
		fc := verifyDataFile(dir, name, wantCRC)
		sizes[name] = fc.Bytes
		r.addFile(fc)
	}

	// Size consistency with the recorded counts.
	if want := r.Nodes * nodeRecordSize; sizes[NodeFile] != want && mc.OK {
		r.Problems = append(r.Problems, truncatedf(NodeFile, "file holds %d bytes, %d nodes need %d", sizes[NodeFile], r.Nodes, want))
	}
	if want := r.Edges * relRecordSize; sizes[RelFile] != want && mc.OK {
		r.Problems = append(r.Problems, truncatedf(RelFile, "file holds %d bytes, %d relationships need %d", sizes[RelFile], r.Edges, want))
	}

	// Structural pass: only meaningful when the bytes themselves check
	// out, otherwise it would duplicate every checksum problem.
	if r.OK() {
		r.structuralPass(dir, sizes)
	}
	return r, nil
}

// verifyMetaFile checks the meta file's magic, version and (for v2)
// self-checksum.
func verifyMetaFile(dir string) error {
	meta, err := os.ReadFile(filepath.Join(dir, MetaFile))
	if err != nil {
		return err
	}
	if len(meta) < metaSizeV1 || binary.LittleEndian.Uint32(meta[0:4]) != metaMagic {
		return &CorruptionError{File: MetaFile, Chunk: -1, Detail: "bad magic", Class: ErrBadMagic}
	}
	switch v := binary.LittleEndian.Uint32(meta[4:8]); v {
	case legacyFormatVer:
		return nil
	case formatVer:
		if len(meta) < metaSizeV2 {
			return truncatedf(MetaFile, "meta file is %d bytes, want %d", len(meta), metaSizeV2)
		}
		if got, want := crc32.Checksum(meta[:metaSizeV1], castagnoli), binary.LittleEndian.Uint32(meta[24:28]); got != want {
			return corruptf(MetaFile, -1, "meta checksum mismatch: computed %08x, recorded %08x", got, want)
		}
		return nil
	default:
		return fmt.Errorf("format version %d: %w", binary.LittleEndian.Uint32(meta[4:8]), ErrBadVersion)
	}
}

// verifyDataFile re-hashes every chunk of one data file against its
// sidecar.
func verifyDataFile(dir, name string, wantCRC bool) FileCheck {
	fc := FileCheck{Name: name, OK: true}
	path := filepath.Join(dir, name)
	st, err := os.Stat(path)
	if err != nil {
		fc.OK, fc.Err = false, err
		return fc
	}
	fc.Bytes = st.Size()
	crc, err := loadChecksums(path)
	if err != nil {
		if os.IsNotExist(err) {
			if wantCRC {
				fc.OK, fc.Err = false, corruptf(name, -1, "missing checksum sidecar %s", name+ChecksumSuffix)
			}
			return fc
		}
		fc.OK, fc.Err = false, err
		return fc
	}
	if crc.fileSize != st.Size() {
		fc.OK, fc.Err = false, truncatedf(name, "file is %d bytes, checksums cover %d", st.Size(), crc.fileSize)
		return fc
	}
	f, err := os.Open(path)
	if err != nil {
		fc.OK, fc.Err = false, err
		return fc
	}
	defer f.Close()
	buf := make([]byte, crc.chunkSize)
	for i := int64(0); i < crc.chunks(); i++ {
		n := crc.chunkLen(i)
		if _, err := f.ReadAt(buf[:n], i*int64(crc.chunkSize)); err != nil && n > 0 {
			fc.OK, fc.Err = false, err
			return fc
		}
		if err := crc.verifyChunk(name, i, buf[:n]); err != nil {
			fc.OK, fc.Err = false, err
			return fc
		}
		fc.Chunks++
	}
	return fc
}

// structuralPass opens the verified store and walks every record,
// checking that offsets and chain references stay in bounds.
func (r *VerifyReport) structuralPass(dir string, sizes map[string]int64) {
	db, err := OpenOptions(dir, Options{})
	if err != nil {
		r.Problems = append(r.Problems, err)
		return
	}
	defer db.Close()

	propBytes := sizes[PropFile]
	strBytes := sizes[StringFile]
	bad := func(format string, args ...any) {
		r.Problems = append(r.Problems, corruptf("structure", -1, format, args...))
	}

	var buf [nodeRecordSize]byte
	for id := int64(0); id < r.Nodes; id++ {
		if err := db.nodes.ReadAt(buf[:], id*nodeRecordSize); err != nil {
			bad("node %d unreadable: %v", id, err)
			return
		}
		typ := binary.LittleEndian.Uint16(buf[0:2])
		cnt := int64(binary.LittleEndian.Uint32(buf[4:8]))
		off := int64(binary.LittleEndian.Uint64(buf[8:16]))
		if int(typ) >= len(db.nodeTypes) {
			bad("node %d: type id %d out of range (%d types)", id, typ, len(db.nodeTypes))
		}
		if cnt > 0 && off+cnt*propRecordSize > propBytes {
			bad("node %d: property chain [%d,%d) exceeds property store (%d bytes)", id, off, off+cnt*propRecordSize, propBytes)
		}
		for _, ref := range []uint64{binary.LittleEndian.Uint64(buf[16:24]), binary.LittleEndian.Uint64(buf[24:32])} {
			if ref != nilRef && int64(ref-1) >= r.Edges {
				bad("node %d: relationship chain head %d out of range (%d edges)", id, ref-1, r.Edges)
			}
		}
	}

	var rbuf [relRecordSize]byte
	for id := int64(0); id < r.Edges; id++ {
		if err := db.rels.ReadAt(rbuf[:], id*relRecordSize); err != nil {
			bad("relationship %d unreadable: %v", id, err)
			return
		}
		from := int64(binary.LittleEndian.Uint64(rbuf[0:8]))
		to := int64(binary.LittleEndian.Uint64(rbuf[8:16]))
		typ := binary.LittleEndian.Uint16(rbuf[16:18])
		cnt := int64(binary.LittleEndian.Uint32(rbuf[20:24]))
		off := int64(binary.LittleEndian.Uint64(rbuf[24:32]))
		if from >= r.Nodes || to >= r.Nodes {
			bad("relationship %d: endpoints (%d,%d) out of range (%d nodes)", id, from, to, r.Nodes)
		}
		if int(typ) >= len(db.edgeTypes) {
			bad("relationship %d: type id %d out of range (%d types)", id, typ, len(db.edgeTypes))
		}
		if cnt > 0 && off+cnt*propRecordSize > propBytes {
			bad("relationship %d: property chain [%d,%d) exceeds property store (%d bytes)", id, off, off+cnt*propRecordSize, propBytes)
		}
		for _, ref := range []uint64{binary.LittleEndian.Uint64(rbuf[32:40]), binary.LittleEndian.Uint64(rbuf[40:48])} {
			if ref != nilRef && int64(ref-1) >= r.Edges {
				bad("relationship %d: chain pointer %d out of range (%d edges)", id, ref-1, r.Edges)
			}
		}
		if len(r.Problems) > 100 {
			bad("too many structural problems; stopping")
			return
		}
	}

	// Property records: string payloads must lie within the string store.
	var pbuf [propRecordSize]byte
	for off := int64(0); off+propRecordSize <= propBytes; off += propRecordSize {
		if err := db.props.ReadAt(pbuf[:], off); err != nil {
			bad("property at %d unreadable: %v", off, err)
			return
		}
		if keyID := binary.LittleEndian.Uint16(pbuf[0:2]); int(keyID) >= len(db.keys) {
			bad("property at %d: key id %d out of range (%d keys)", off, keyID, len(db.keys))
		}
		if pbuf[2] == propKindString {
			slen := int64(binary.LittleEndian.Uint32(pbuf[4:8]))
			soff := int64(binary.LittleEndian.Uint64(pbuf[8:16]))
			if soff+slen > strBytes {
				bad("property at %d: string [%d,%d) exceeds string store (%d bytes)", off, soff, soff+slen, strBytes)
			}
		}
		if len(r.Problems) > 100 {
			bad("too many structural problems; stopping")
			return
		}
	}
}
