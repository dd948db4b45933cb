package ddg

import (
	"testing"
	"testing/quick"
)

func TestNewSetSortsAndDedups(t *testing.T) {
	s := NewSet(5, 3, 5, 1, 3)
	want := Set{1, 3, 5}
	if !s.Equal(want) {
		t.Errorf("NewSet = %v, want %v", s, want)
	}
}

func TestSetOperations(t *testing.T) {
	a := NewSet(1, 2, 3, 4)
	b := NewSet(3, 4, 5)
	if got := a.Union(b); !got.Equal(NewSet(1, 2, 3, 4, 5)) {
		t.Errorf("Union = %v", got)
	}
	if got := a.Diff(b); !got.Equal(NewSet(1, 2)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.Intersect(b); !got.Equal(NewSet(3, 4)) {
		t.Errorf("Intersect = %v", got)
	}
	if a.Disjoint(b) {
		t.Error("a and b are not disjoint")
	}
	if !NewSet(1, 2).Disjoint(NewSet(3, 4)) {
		t.Error("disjoint sets reported overlapping")
	}
	if !NewSet(2, 3).SubsetOf(a) {
		t.Error("subset not detected")
	}
	if NewSet(2, 9).SubsetOf(a) {
		t.Error("non-subset reported as subset")
	}
	if !a.Contains(3) || a.Contains(9) {
		t.Error("Contains misbehaves")
	}
}

func TestSetKeyCanonical(t *testing.T) {
	if NewSet(3, 1, 2).Key() != NewSet(2, 3, 1).Key() {
		t.Error("equal sets have different keys")
	}
	if NewSet(1, 2).Key() == NewSet(1, 3).Key() {
		t.Error("different sets share a key")
	}
	if NewSet(1, 12).Key() == NewSet(11, 2).Key() {
		t.Error("key is ambiguous across digit boundaries")
	}
}

func TestEmptySet(t *testing.T) {
	var empty Set
	if empty.Len() != 0 || empty.Contains(0) {
		t.Error("zero Set misbehaves")
	}
	if got := empty.Union(NewSet(1)); !got.Equal(NewSet(1)) {
		t.Errorf("empty.Union = %v", got)
	}
	if got := NewSet(1).Diff(empty); !got.Equal(NewSet(1)) {
		t.Errorf("Diff empty = %v", got)
	}
	if !empty.SubsetOf(NewSet(1)) || !empty.Disjoint(NewSet(1)) {
		t.Error("empty set subset/disjoint misbehaves")
	}
}

// toSet converts a random byte slice to a Set for property tests.
func toSet(bytes []byte) Set {
	ids := make([]NodeID, len(bytes))
	for i, b := range bytes {
		ids[i] = NodeID(b % 32)
	}
	return NewSet(ids...)
}

func TestSetAlgebraProperties(t *testing.T) {
	type lawFn func(a, b, c Set) bool
	laws := map[string]lawFn{
		"union commutes": func(a, b, _ Set) bool {
			return a.Union(b).Equal(b.Union(a))
		},
		"intersect commutes": func(a, b, _ Set) bool {
			return a.Intersect(b).Equal(b.Intersect(a))
		},
		"union associates": func(a, b, c Set) bool {
			return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
		},
		"diff then union restores subset": func(a, b, _ Set) bool {
			return a.Diff(b).Union(a.Intersect(b)).Equal(a)
		},
		"de morgan-ish: diff disjoint from intersect": func(a, b, _ Set) bool {
			return a.Diff(b).Disjoint(a.Intersect(b))
		},
		"subset of union": func(a, b, _ Set) bool {
			return a.SubsetOf(a.Union(b)) && b.SubsetOf(a.Union(b))
		},
		"intersect subset of both": func(a, b, _ Set) bool {
			i := a.Intersect(b)
			return i.SubsetOf(a) && i.SubsetOf(b)
		},
	}
	for name, law := range laws {
		law := law
		prop := func(x, y, z []byte) bool { return law(toSet(x), toSet(y), toSet(z)) }
		if err := quick.Check(prop, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s: %v", name, err)
		}
		// Skewed pairs, in both orders: one set more than 32 times the
		// other's size takes the binary-search branch of SubsetOf.
		skewedProp := func(x, y, z []byte) bool {
			s, big := skewedPair(x, y)
			return law(s, big, toSet(z)) && law(big, s, toSet(z))
		}
		if err := quick.Check(skewedProp, &quick.Config{MaxCount: 200}); err != nil {
			t.Errorf("%s on skewed pairs: %v", name, err)
		}
	}
	skewedRef := func(x, y []byte) bool {
		s, big := skewedPair(x, y)
		in := map[NodeID]bool{}
		for _, id := range big {
			in[id] = true
		}
		var diff []NodeID
		subset := true
		for _, id := range s {
			if !in[id] {
				diff = append(diff, id)
				subset = false
			}
		}
		return s.Diff(big).Equal(NewSet(diff...)) && s.SubsetOf(big) == subset
	}
	if err := quick.Check(skewedRef, &quick.Config{MaxCount: 500}); err != nil {
		t.Errorf("skewed Diff/SubsetOf disagree with the reference: %v", err)
	}
}

// skewedPair returns a set s of at most 8 ids below 64 drawn from x and
// a set t of more than 32·|s| ids: the range [0, 800) with holes below 64
// carved by y, so s's ids, often adjacent, land both in t and in its
// holes.
func skewedPair(x, y []byte) (Set, Set) {
	if len(x) > 8 {
		x = x[:8]
	}
	ids := make([]NodeID, len(x))
	for i, b := range x {
		ids[i] = NodeID(b % 64)
	}
	holes := map[NodeID]bool{}
	for _, b := range y {
		holes[NodeID(b%64)] = true
	}
	var t []NodeID
	for id := NodeID(0); id < 800; id++ {
		if !holes[id] {
			t = append(t, id)
		}
	}
	return NewSet(ids...), NewSet(t...)
}

func TestUnionAll(t *testing.T) {
	got := UnionAll(NewSet(1), NewSet(2, 3), NewSet(1, 4))
	if !got.Equal(NewSet(1, 2, 3, 4)) {
		t.Errorf("UnionAll = %v", got)
	}
	if UnionAll().Len() != 0 {
		t.Error("UnionAll() should be empty")
	}
}
