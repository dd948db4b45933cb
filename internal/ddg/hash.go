package ddg

// 128-bit content hashing for node sets, views, and whole graphs. The
// pattern finder keys its sub-DDG pool and its view–verdict cache by these
// hashes instead of O(n) strings: a key is 16 bytes regardless of how many
// nodes it covers, and two independently mixed 64-bit streams make
// accidental collisions vanishingly unlikely (≈ 2⁻¹²⁸ per pair, ≈ 2⁻⁶⁴
// across the ~2³² keys any realistic run produces). The hashes are content
// hashes, not cryptographic ones — there is no adversary feeding inputs,
// only deterministic traces.

import "sync"

// Hash128 is a 128-bit content hash. It is comparable, so it can key maps
// directly.
type Hash128 struct {
	Hi, Lo uint64
}

// IsZero reports whether the hash is the (never produced) zero value,
// usable as an "unset" sentinel.
func (h Hash128) IsZero() bool { return h.Hi == 0 && h.Lo == 0 }

// mix64 is the splitmix64 finalizer: a fast, well-distributed 64-bit
// permutation (Steele et al., "Fast Splittable Pseudorandom Number
// Generators").
func mix64(x uint64) uint64 {
	x ^= x >> 30
	x *= 0xbf58476d1ce4e5b9
	x ^= x >> 27
	x *= 0x94d049bb133111eb
	x ^= x >> 31
	return x
}

// Hasher128 accumulates 64-bit words into a 128-bit hash. The two streams
// chain the running state through mix64 with different injection points,
// so they decorrelate even on inputs that collide in one stream. The
// accumulation is order-dependent: Word(a), Word(b) and Word(b), Word(a)
// hash differently.
type Hasher128 struct {
	hi, lo uint64
}

// NewHasher returns a hasher seeded with a domain tag, so hashes of
// different object kinds (sets, views, pool keys, fingerprints) never
// collide structurally even over equal word streams.
func NewHasher(seed uint64) Hasher128 {
	return Hasher128{
		hi: mix64(seed ^ 0x9e3779b97f4a7c15),
		lo: mix64(seed + 0xd1b54a32d192ed03),
	}
}

// Word folds one 64-bit word into both streams.
func (h *Hasher128) Word(w uint64) {
	h.lo = mix64(h.lo ^ w)
	h.hi = mix64(h.hi + w + 0x9e3779b97f4a7c15)
}

// Hash folds a previously computed hash into the stream (for composing
// hashes of parts into a hash of the whole, e.g. fused pool keys).
func (h *Hasher128) Hash(x Hash128) {
	h.Word(x.Hi)
	h.Word(x.Lo)
}

// Sum finalizes the accumulated state. The hasher may keep accumulating
// afterwards; Sum is a snapshot.
func (h *Hasher128) Sum() Hash128 {
	return Hash128{
		Hi: mix64(h.hi ^ (h.lo >> 1)),
		Lo: mix64(h.lo + h.hi),
	}
}

// hashSeedSet tags Set.Hash so a set hash never equals a fingerprint or
// view hash of coincidentally equal word streams.
const (
	hashSeedSet         = 0x5e7c0de5e7c0de01
	hashSeedFingerprint = 0xf19e4b7a3c2d5e81
)

// Hash returns the content hash of the node set. Equal sets hash equally;
// the length is folded in so prefixes do not collide with extensions.
func (s Set) Hash() Hash128 {
	h := NewHasher(hashSeedSet)
	h.Word(uint64(len(s)))
	for _, id := range s {
		h.Word(uint64(id))
	}
	return h.Sum()
}

// fingerprint state lives on the Graph (graph.go) and memoizes via
// sync.Once: graphs are immutable, so one pass suffices.
type fingerprintMemo struct {
	once sync.Once
	fp   Hash128
}

// Fingerprint returns a content hash of everything about the graph that
// pattern matching can observe: node count, per-node operations, the full
// arc structure, and the dynamic loop scope chains (which determine view
// compaction). Two graphs with equal fingerprints present identical
// matching problems under identical node ids — the property the finder's
// cross-run view cache relies on, and one the deterministic tracer
// guarantees for repeated traces of the same program and input.
//
// The result is memoized on first call; Fingerprint must not be called
// while the graph is still being built.
func (g *Graph) Fingerprint() Hash128 {
	g.fpMemo.once.Do(func() {
		h := NewHasher(hashSeedFingerprint)
		h.Word(uint64(g.NumNodes()))
		h.Word(uint64(g.NumArcs()))
		for _, op := range g.ops {
			h.Word(uint64(op))
		}
		for u := 0; u < g.NumNodes(); u++ {
			for _, v := range g.Succs(NodeID(u)) {
				h.Word(uint64(u)<<32 | uint64(v))
			}
		}
		// Scope chains drive LoopView grouping; hash each node's (loop,
		// invocation, iteration) frames. Chains are shared persistent
		// stacks, so this is cheap relative to the arc walk above.
		for u := 0; u < g.NumNodes(); u++ {
			depth := uint64(0)
			for f := g.ScopeOf(NodeID(u)); f != nil; f = f.Parent {
				h.Word(uint64(f.Loop))
				h.Word(f.Invocation)
				h.Word(uint64(f.Iter))
				depth++
			}
			h.Word(depth)
		}
		g.fpMemo.fp = h.Sum()
	})
	return g.fpMemo.fp
}
