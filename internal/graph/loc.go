package graph

import (
	"math/bits"

	"frappe/internal/model"
)

// LocKey names one of the ten positional edge properties of Table 2.
// The order is the order the extractor has always emitted them in, and
// the order EdgeProps returns them in.
type LocKey uint8

// Positional edge property keys, in emission order.
const (
	LocUseFileID LocKey = iota
	LocUseStartLine
	LocUseStartCol
	LocUseEndLine
	LocUseEndCol
	LocNameFileID
	LocNameStartLine
	LocNameStartCol
	LocNameEndLine
	LocNameEndCol
	NumLocKeys
)

// LocKeys is the property key of each LocKey.
var LocKeys = [NumLocKeys]string{
	model.PropUseFileID, model.PropUseStartLine, model.PropUseStartCol,
	model.PropUseEndLine, model.PropUseEndCol,
	model.PropNameFileID, model.PropNameStartLine, model.PropNameStartCol,
	model.PropNameEndLine, model.PropNameEndCol,
}

// Loc is the source location an edge carries as positional properties:
// all ten keys on a reference edge, NAME_FILE_ID/START_LINE/START_COL on
// a file_contains edge. It is held inline in the edge record and holds
// no pointers, so the garbage collector never traces it. Through the
// Source interface a Loc reads exactly as the same keys held as Int
// properties.
type Loc struct {
	vals [NumLocKeys]int32
	has  uint16
}

// Set stores v under k.
func (l *Loc) Set(k LocKey, v int32) {
	l.vals[k] = v
	l.has |= 1 << k
}

// Get returns the value under k and whether k is set.
func (l *Loc) Get(k LocKey) (int32, bool) {
	return l.vals[k], l.has&(1<<k) != 0
}

// count counts the keys set.
func (l *Loc) count() int { return bits.OnesCount16(l.has) }

// Empty reports whether no key is set.
func (l *Loc) Empty() bool { return l.has == 0 }

// prop returns the value under the property key (case-insensitive), as
// Props.Get would if the Loc's keys were Int properties.
func (l *Loc) prop(key string) (Value, bool) {
	if l.has == 0 {
		return Value{}, false
	}
	for k, name := range LocKeys {
		if eqFold(key, name) {
			if v, ok := l.Get(LocKey(k)); ok {
				return Int(int64(v)), true
			}
			break
		}
	}
	return Value{}, false
}

// appendProps appends the keys set as Int properties, in LocKey order.
func (l *Loc) appendProps(ps Props) Props {
	for k := LocKey(0); k < NumLocKeys; k++ {
		if v, ok := l.Get(k); ok {
			ps = append(ps, Prop{Key: LocKeys[k], Val: Int(int64(v))})
		}
	}
	return ps
}
