package ddg

import (
	"fmt"
	"testing"

	"discovery/internal/mir"
)

func TestHasher128Determinism(t *testing.T) {
	h1 := NewHasher(1)
	h2 := NewHasher(1)
	for _, w := range []uint64{0, 1, 42, ^uint64(0)} {
		h1.Word(w)
		h2.Word(w)
	}
	if h1.Sum() != h2.Sum() {
		t.Error("equal word streams must hash equally")
	}
}

func TestHasher128OrderAndSeedSensitivity(t *testing.T) {
	sum := func(seed uint64, words ...uint64) Hash128 {
		h := NewHasher(seed)
		for _, w := range words {
			h.Word(w)
		}
		return h.Sum()
	}
	if sum(1, 2, 3) == sum(1, 3, 2) {
		t.Error("word order must matter")
	}
	if sum(1, 2, 3) == sum(2, 2, 3) {
		t.Error("seed must matter")
	}
	if sum(1) == sum(1, 0) {
		t.Error("a zero word must change the hash (length extension)")
	}
	if sum(1, 2, 3).IsZero() {
		t.Error("real hashes must not be the zero sentinel")
	}
}

func TestSetHash(t *testing.T) {
	a := NewSet(1, 2, 3)
	b := NewSet(3, 2, 1) // NewSet sorts: same set
	if a.Hash() != b.Hash() {
		t.Error("equal sets must hash equally")
	}
	if a.Hash() == NewSet(1, 2).Hash() {
		t.Error("prefix must not collide with extension")
	}
	if a.Hash() == NewSet(1, 2, 4).Hash() {
		t.Error("different sets must hash differently")
	}
	// No cheap collisions across a few thousand distinct small sets.
	seen := map[Hash128]string{}
	for i := 0; i < 64; i++ {
		for j := i + 1; j < 64; j++ {
			s := NewSet(NodeID(i), NodeID(j))
			key := fmt.Sprintf("%d-%d", i, j)
			if prev, dup := seen[s.Hash()]; dup {
				t.Fatalf("collision: {%s} vs {%s}", prev, key)
			}
			seen[s.Hash()] = key
		}
	}
}

// TestSetHashIsAdditive checks the property subtract keys rely on: a
// set's hash is the lane-wise sum of its parts' hashes, so the hash of s \ t
// for t ⊆ s is Hash(s) less Hash(t).
func TestSetHashIsAdditive(t *testing.T) {
	s := NewSet(0, 3, 64, 65, 200, 1<<20)
	for mask := 0; mask < 1<<len(s); mask++ {
		var in, out Set
		for i, id := range s {
			if mask>>i&1 != 0 {
				in = append(in, id)
			} else {
				out = append(out, id)
			}
		}
		if got := in.Hash().add(out.Hash()); got != s.Hash() {
			t.Fatalf("Hash(%v) + Hash(%v) differs from Hash(%v)", in, out, s)
		}
		if got := s.Hash().sub(out.Hash()); got != in.Hash() {
			t.Fatalf("Hash(%v) - Hash(%v) differs from Hash(%v)", s, out, in)
		}
	}
	if !(Set{}).Hash().IsZero() {
		t.Error("the empty set's hash must be the zero sum")
	}
}

// hashTestGraph builds a small graph: a 4-node chain plus a fork,
//
//	0 -> 1 -> 2 -> 3
//	     1 -> 4
//
// with any extra arcs appended.
func hashTestGraph(extra ...[2]NodeID) *Graph {
	ops := []mir.Op{mir.OpFSub, mir.OpFAdd, mir.OpFMul, mir.OpFDiv, mir.OpFDiv}
	pos := func(i int) mir.Pos { return mir.Pos{File: "h.c", Line: i + 1} }
	return arcGraph(ops, pos, append([][2]NodeID{{0, 1}, {1, 2}, {2, 3}, {1, 4}}, extra...)...)
}

func TestGraphFingerprint(t *testing.T) {
	g1 := hashTestGraph()
	g2 := hashTestGraph()
	if g1.Fingerprint() != g2.Fingerprint() {
		t.Error("identically built graphs must fingerprint equally")
	}
	if g1.Fingerprint() != g1.Fingerprint() {
		t.Error("fingerprint must be stable (memoized)")
	}

	// One extra arc changes it.
	g3 := hashTestGraph([2]NodeID{0, 4})
	if g3.Fingerprint() == g1.Fingerprint() {
		t.Error("an extra arc must change the fingerprint")
	}
}
