// Package store persists a Frappé graph to record-oriented store files
// and serves reads back through an LRU page cache, mirroring the design
// points of Neo4j's store that the paper's evaluation depends on:
//
//   - fixed-size node and relationship records, with adjacency encoded as
//     linked relationship chains threaded through the relationship store;
//   - a separate property store (fixed records) backed by a deduplicated
//     string store and a key/type name table;
//   - an index file holding the auto-index, searched on disk via binary
//     search over sorted (key, value) terms;
//   - a page cache whose contents distinguish the paper's cold runs
//     (caches dropped) from warm runs (caches populated).
//
// A store directory contains:
//
//	neostore.meta.db           counts + magic
//	neostore.nodestore.db      32-byte node records
//	neostore.relationshipstore.db  48-byte relationship records
//	neostore.propertystore.db  16-byte property records
//	neostore.stringstore.db    raw deduplicated string bytes
//	neostore.keystore.db       property-key / node-type / edge-type names
//	neostore.index.db          sorted auto-index terms + posting lists
//
// The DB type implements graph.Source, so the Cypher engine and the
// traversal API run unchanged against disk-backed data.
package store

// File names within a store directory.
const (
	MetaFile   = "neostore.meta.db"
	NodeFile   = "neostore.nodestore.db"
	RelFile    = "neostore.relationshipstore.db"
	PropFile   = "neostore.propertystore.db"
	StringFile = "neostore.stringstore.db"
	KeyFile    = "neostore.keystore.db"
	IndexFile  = "neostore.index.db"
)

// dataFiles are the checksummed store files, each with a sidecar named
// by ChecksumSuffix; MetaFile carries its own checksum instead.
var dataFiles = []string{NodeFile, RelFile, PropFile, StringFile, KeyFile, IndexFile}

// IsStoreFile reports whether name is the base name of a file a store
// directory holds: the meta file, a data file, or a checksum sidecar.
func IsStoreFile(name string) bool {
	if name == MetaFile {
		return true
	}
	for _, f := range dataFiles {
		if name == f || name == f+ChecksumSuffix {
			return true
		}
	}
	return false
}

// Record sizes. Node and relationship records are fixed-size so that a
// record address is a multiplication, as in Neo4j's store files.
const (
	nodeRecordSize = 32 // typ u16, pad u16, propCount u32, propOff u64, firstOut u64, firstIn u64
	relRecordSize  = 48 // from u64, to u64, typ u16, pad u16, propCount u32, propOff u64, nextOut u64, nextIn u64
	propRecordSize = 16 // keyID u16, kind u8, pad u8, aux u32, payload u64
)

// Chain terminator: stored pointers are id+1 so that 0 means "none".
const nilRef = 0

// Magic numbers and format versions. Version 2 added per-chunk CRC32-C
// checksum sidecars for every data file plus a self-checksum in the meta
// file; version 1 stores (no checksums) are still readable.
const (
	metaMagic       = 0x46524150 // "FRAP"
	indexMagic      = 0x46524958 // "FRIX"
	formatVer       = 2
	legacyFormatVer = 1

	metaSizeV1 = 24 // magic u32, ver u32, nodeCount u64, edgeCount u64
	metaSizeV2 = 28 // v1 fields + crc32c of them
)

// Property value kind tags in property records.
const (
	propKindInt    = 1
	propKindString = 2
	propKindBool   = 3
)
