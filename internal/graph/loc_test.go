package graph

import (
	"reflect"
	"strings"
	"testing"

	"frappe/internal/model"
)

// refTestLoc is a reference-edge location with a distinct value per key.
func refTestLoc() Loc {
	var l Loc
	for k := LocKey(0); k < NumLocKeys; k++ {
		l.Set(k, int32(100+k))
	}
	return l
}

// fileContainsTestLoc is the 3-key location of a file_contains edge.
func fileContainsTestLoc() Loc {
	var l Loc
	l.Set(LocNameFileID, 4)
	l.Set(LocNameStartLine, 17)
	l.Set(LocNameStartCol, 5)
	return l
}

func TestLocEdgePropCaseInsensitive(t *testing.T) {
	g := New()
	a := g.AddNode(model.NodeFunction, nil)
	b := g.AddNode(model.NodeFunction, nil)
	e := g.AddEdgeLoc(a, b, model.EdgeCalls, refTestLoc())
	for k, key := range LocKeys {
		for _, form := range []string{key, strings.ToLower(key), strings.ToUpper(key[:1]) + strings.ToLower(key[1:])} {
			v, ok := g.EdgeProp(e, form)
			if !ok || v.Kind() != KindInt || v.AsInt() != int64(100+k) {
				t.Errorf("EdgeProp(%q) = %#v, %v; want Int(%d)", form, v, ok, 100+k)
			}
		}
	}
	for _, form := range []string{"TYPE", "type", "Type"} {
		if v, ok := g.EdgeProp(e, form); !ok || v.AsString() != string(model.EdgeCalls) {
			t.Errorf("EdgeProp(%q) = %#v, %v; want the edge type", form, v, ok)
		}
	}
	if v, ok := g.EdgeProp(e, "use_file"); ok {
		t.Errorf("EdgeProp(use_file) = %#v, want absent", v)
	}
}

func TestLocFileContainsMissesOtherKeys(t *testing.T) {
	g := New()
	f := g.AddNode(model.NodeFile, nil)
	fn := g.AddNode(model.NodeFunction, nil)
	e := g.AddEdgeLoc(f, fn, model.EdgeFileContains, fileContainsTestLoc())
	present := map[LocKey]int64{LocNameFileID: 4, LocNameStartLine: 17, LocNameStartCol: 5}
	for k := LocKey(0); k < NumLocKeys; k++ {
		v, ok := g.EdgeProp(e, LocKeys[k])
		want, has := present[k]
		if ok != has || (has && v.AsInt() != want) {
			t.Errorf("EdgeProp(%s) = %#v, %v; want present=%v value %d", LocKeys[k], v, ok, has, want)
		}
	}
	if got := len(g.EdgeProps(e)); got != 3 {
		t.Errorf("EdgeProps has %d properties, want 3", got)
	}
}

func TestLocEdgePropsOrder(t *testing.T) {
	g := New()
	a := g.AddNode(model.NodeFunction, nil)
	b := g.AddNode(model.NodeFunction, nil)
	// The order the extractor emitted these properties in before they
	// moved into a Loc.
	wantRef := P(
		model.PropUseFileID, 100, model.PropUseStartLine, 101, model.PropUseStartCol, 102,
		model.PropUseEndLine, 103, model.PropUseEndCol, 104,
		model.PropNameFileID, 105, model.PropNameStartLine, 106, model.PropNameStartCol, 107,
		model.PropNameEndLine, 108, model.PropNameEndCol, 109,
	)
	wantFC := P(model.PropNameFileID, 4, model.PropNameStartLine, 17, model.PropNameStartCol, 5)
	ref := g.AddEdgeLoc(a, b, model.EdgeCalls, refTestLoc())
	fc := g.AddEdgeLoc(a, b, model.EdgeFileContains, fileContainsTestLoc())
	if got := g.EdgeProps(ref); !reflect.DeepEqual(got, wantRef) {
		t.Errorf("reference EdgeProps = %v, want %v", got, wantRef)
	}
	if got := g.EdgeProps(fc); !reflect.DeepEqual(got, wantFC) {
		t.Errorf("file_contains EdgeProps = %v, want %v", got, wantFC)
	}
	// An edge without a Loc hands back its own list.
	own := P(model.PropIndex, 2)
	plain := g.AddEdge(a, b, model.EdgeHasParam, own)
	if got := g.EdgeProps(plain); &got[0] != &own[0] {
		t.Errorf("EdgeProps of a Loc-less edge copied its list")
	}
	if l, ps := g.EdgeLoc(ref); l != refTestLoc() || ps != nil {
		t.Errorf("EdgeLoc(ref) = %+v, %v", l, ps)
	}
}

// TestLocReadsAsGenericProps: an edge added with AddEdgeLoc and the same
// edge added with the positional keys as Int properties answer every
// edge method of Source alike.
func TestLocReadsAsGenericProps(t *testing.T) {
	loc, gen := New(), New()
	for _, g := range []*Graph{loc, gen} {
		g.AddNode(model.NodeFile, P(model.PropName, "a.c", "FILE_ID", 4))
		g.AddNode(model.NodeFunction, P(model.PropShortName, "f"))
	}
	for _, l := range []Loc{refTestLoc(), fileContainsTestLoc()} {
		loc.AddEdgeLoc(0, 1, model.EdgeCalls, l)
		gen.AddEdge(0, 1, model.EdgeCalls, l.appendProps(nil))
	}
	keys := append([]string{"TYPE", "type", "INDEX", "use_file"}, LocKeys[:]...)
	for _, k := range LocKeys {
		keys = append(keys, strings.ToLower(k))
	}
	for id := EdgeID(0); id < EdgeID(loc.EdgeCount()); id++ {
		if !reflect.DeepEqual(loc.EdgeProps(id), gen.EdgeProps(id)) {
			t.Errorf("edge %d: EdgeProps %v vs %v", id, loc.EdgeProps(id), gen.EdgeProps(id))
		}
		for _, k := range keys {
			v1, ok1 := loc.EdgeProp(id, k)
			v2, ok2 := gen.EdgeProp(id, k)
			if ok1 != ok2 || !v1.Equal(v2) || v1.Kind() != v2.Kind() {
				t.Errorf("edge %d: EdgeProp(%s) = %#v, %v vs %#v, %v", id, k, v1, ok1, v2, ok2)
			}
		}
	}
}
