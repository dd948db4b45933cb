package core

import (
	"sync"

	"discovery/internal/ddg"
	"discovery/internal/patterns"
)

// ViewCache maps a sub-DDG's pool key (SubDDG.Key) to its whole match
// outcome, consulted before every sub-DDG a Find run given one
// (Options.Cache) matches. It is the analysis daemon's: identical
// submissions decompose into identical pools (the deterministic tracer
// guarantees identical node ids), so a warm cache answers their sub-DDGs
// without building a view or a census. A single run finds nothing to
// reuse within itself — its pool keys are unique — so a Find without a
// cache keeps none.
//
// Entries are partitioned into generations, one per run fingerprint
// (graph content + the options that alter match outcomes, see
// cacheFingerprint). A Find run binds to its fingerprint's generation at
// startup and never sees another generation's entries, so runs over
// different graphs sharing one cache neither pollute nor evict each
// other's warm entries. The generation map is LRU-bounded: admitting a
// fingerprint beyond the bound evicts the least-recently-acquired
// generation, counted in Snapshot().Evictions. The bound is maxGenerations.
//
// Soundness rests on the key: within one generation the outcome of
// matching a sub-DDG that is not fused is a pure function of its node set
// and provenance (loop, associative), which is exactly what the pool key
// hashes. A pipeline stage pair is keyed by its two stages' pool keys
// (pairKey). Fused sub-DDGs combine their constituents' patterns and are
// not cached.
//
// Entries are first-write-wins: once a key holds one, later stores (a
// concurrent run racing on the same sub-DDG) never replace it, so every
// run that looked the entry up observed the same outcome.
//
// A ViewCache is safe for concurrent use, including sharing between
// concurrent Find runs: the generation and entry maps are mutex-guarded,
// cached patterns are immutable after store (their node-set memo is
// sync.Once-guarded and computed before publication), and generations
// isolate runs with different fingerprints from each other.
type ViewCache struct {
	mu sync.RWMutex

	// tick is a logical clock advanced on every acquire; each generation
	// remembers the tick of its last acquire, which is the LRU order.
	tick uint64

	gens map[ddg.Hash128]*cacheGen

	// evictions counts generations dropped by the LRU bound (surfaced as
	// Snapshot().Evictions).
	evictions int
}

// maxGenerations bounds how many run fingerprints a cache retains
// entries for at once. Each generation costs memory proportional to its
// run's sub-DDG pool: 16 keeps the daemon's whole workload registry warm
// at default options, while an adversarial stream of unique graphs
// cannot grow the cache without bound.
const maxGenerations = 16

// cacheGen holds one run fingerprint's entries. All fields are guarded by
// the owning ViewCache's mutex. A generation evicted from the LRU map
// stays valid for runs already bound to it; it is merely no longer
// offered to future runs.
type cacheGen struct {
	fp      ddg.Hash128
	lastUse uint64
	entries map[ddg.Hash128]cacheEntry
}

// cacheEntry is one sub-DDG's (or pipeline stage pair's) match outcome.
type cacheEntry struct {
	// pats are the verified patterns, in assembly order.
	pats []*patterns.Pattern
	// skipped reports that the view-size gate skipped the sub-DDG.
	skipped bool
	// kinds are the kinds whose solves were booked as cache misses when
	// the entry was computed; a hit books one cache hit for each.
	kinds []patterns.Kind
}

// NewViewCache returns an empty cache, ready to be passed as
// Options.Cache to share match outcomes across Find runs — sequential or
// concurrent.
func NewViewCache() *ViewCache {
	return &ViewCache{}
}

// acquire binds a run to its fingerprint's generation, creating it (and
// evicting the least-recently-acquired one beyond the bound) when absent.
// The returned handle is what the finder consults and populates; distinct
// fingerprints receive disjoint handles, which is the whole concurrency
// story — tenant A's graph can no longer evict tenant B's warm entries
// mid-run, and two runs over the same graph share one generation safely
// under the cache mutex.
func (c *ViewCache) acquire(fp ddg.Hash128) *runCache {
	if c == nil {
		return nil
	}
	c.mu.Lock()
	defer c.mu.Unlock()
	c.tick++
	if g, ok := c.gens[fp]; ok {
		g.lastUse = c.tick
		return &runCache{c: c, g: g}
	}
	if c.gens == nil {
		c.gens = map[ddg.Hash128]*cacheGen{}
	}
	for len(c.gens) >= maxGenerations {
		var oldest *cacheGen
		for _, g := range c.gens {
			if oldest == nil || g.lastUse < oldest.lastUse {
				oldest = g
			}
		}
		delete(c.gens, oldest.fp)
		c.evictions++
	}
	g := &cacheGen{
		fp:      fp,
		lastUse: c.tick,
		entries: map[ddg.Hash128]cacheEntry{},
	}
	c.gens[fp] = g
	return &runCache{c: c, g: g}
}

// runCache is a ViewCache bound to one run's generation: every lookup and
// store goes to that generation's maps, under the shared cache mutex. The
// zero of its pointer type (nil) is a valid, always-missing cache, which
// is what a run without a cache, or with a failed cache setup, holds.
type runCache struct {
	c *ViewCache
	g *cacheGen
}

// lookup returns the entry stored under key, if any.
func (rc *runCache) lookup(key ddg.Hash128) (cacheEntry, bool) {
	if rc == nil {
		return cacheEntry{}, false
	}
	rc.c.mu.RLock()
	defer rc.c.mu.RUnlock()
	e, ok := rc.g.entries[key]
	return e, ok
}

// store records the outcome computed for key. Its patterns must have
// their node sets memoized already, so that the readers of the shared
// entry start from immutable patterns.
//
// Entries are first-write-wins: when concurrent runs race the same
// sub-DDG (both missed before either stored), the first stored outcome
// stands and the loser's — by determinism, identical — one is discarded,
// so later readers can never observe an outcome flip.
func (rc *runCache) store(key ddg.Hash128, e cacheEntry) {
	if rc == nil {
		return
	}
	rc.c.mu.Lock()
	defer rc.c.mu.Unlock()
	if _, ok := rc.g.entries[key]; !ok {
		rc.g.entries[key] = e
	}
}

// CacheSnapshot describes a cache's current contents, summed across its
// retained generations. The daemon's /stats document renders it as its
// cache block.
type CacheSnapshot struct {
	// Entries is the number of stored match outcomes.
	Entries int `json:"entries"`
	// Generations is the number of run fingerprints currently retaining
	// entries (at most maxGenerations).
	Generations int `json:"generations"`
	// Evictions counts generations dropped since creation because the
	// LRU-bounded generation map was full.
	Evictions int `json:"evictions"`
}

// Snapshot returns the cache's current size and eviction count.
func (c *ViewCache) Snapshot() CacheSnapshot {
	if c == nil {
		return CacheSnapshot{}
	}
	c.mu.RLock()
	defer c.mu.RUnlock()
	s := CacheSnapshot{
		Generations: len(c.gens),
		Evictions:   c.evictions,
	}
	for _, g := range c.gens {
		s.Entries += len(g.entries)
	}
	return s
}

// hashSeedCacheFP tags run fingerprints (cacheFingerprint).
const hashSeedCacheFP = 0x3d9f1b7e5a2c4d69

// cacheFingerprint identifies the matching problem a cache entry answers:
// the simplified graph's content plus every option that changes what a
// solve returns. VerifyMatches is included because patterns are stored
// post-verification; Extensions because it changes what the map slot
// produces (stencil refinement) and whether tree reductions run;
// compaction and the view-size gate because they decide which views exist
// at all. The global budget is deliberately excluded: it decides which
// solves run, never what a solve returns.
func cacheFingerprint(gs *ddg.Graph, opts Options) ddg.Hash128 {
	h := ddg.NewHasher(hashSeedCacheFP)
	h.Hash(gs.Fingerprint())
	var flags uint64
	if opts.VerifyMatches {
		flags |= 1
	}
	if opts.Extensions {
		flags |= 2
	}
	if opts.DisableCompact {
		flags |= 4
	}
	h.Word(flags)
	h.Word(uint64(opts.maxViewGroups()))
	// The prescreen needs no word here: its verdicts agree with matcher
	// verdicts by construction.
	return h.Sum()
}
