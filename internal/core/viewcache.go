package core

import (
	"sync"

	"discovery/internal/ddg"
	"discovery/internal/patterns"
)

// ViewCache is a content-addressed map from view hash to per-kind match
// verdicts, consulted before every sub-DDG solve of a Find run that is
// given one (Options.Cache). It is the analysis daemon's: identical
// submissions present identical views (the deterministic tracer
// guarantees identical node ids), so a warm cache answers their solves
// without even building the views. A single run finds almost nothing to
// reuse within itself, so a Find without a cache keeps none.
//
// Entries are partitioned into generations, one per run fingerprint
// (graph content + the options that alter match outcomes, see
// cacheFingerprint). A Find run binds to its fingerprint's generation at
// startup and never sees another generation's entries, so runs over
// different graphs sharing one cache neither pollute nor evict each
// other's warm verdicts. The generation map is LRU-bounded: admitting a
// fingerprint beyond the bound evicts the least-recently-acquired
// generation, counted in Snapshot().Evictions. The bound is maxGenerations.
//
// Soundness rests on the cache key: within one generation a view's match
// outcome is a pure function of (node set, grouping provenance), which is
// exactly what patterns.ViewKey hashes. Verdicts are stored per pattern
// kind, so provenances that share a grouping (an associative component
// and a whole-graph sub-DDG over the same nodes) safely share entries:
// they consult different kind slots or, where they overlap, ask the same
// question of the same view.
//
// Every verdict is decided: "pattern" (with the matched pattern) or "no
// pattern", the latter from a matcher run or from the structural
// prescreen. Verdicts are first-write-wins: once a (view, kind) slot holds
// one, later stores (a concurrent run racing on the same solve, or a
// prescreen prune racing a matcher run) never replace it, so every run
// that looked the entry up observed the same answer.
//
// A ViewCache is safe for concurrent use, including sharing between
// concurrent Find runs: the generation and entry maps are mutex-guarded,
// cached patterns are immutable after store (their node-set memo is
// sync.Once-guarded and precomputed before publication), and generations
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
	entries map[cacheKey]cacheEntry

	// prescreened counts the stored entries whose verdict came from the
	// structural prescreen rather than a matcher run.
	prescreened int
}

type cacheKey struct {
	view ddg.Hash128
	kind patterns.Kind
}

type cacheVerdict uint8

const (
	verdictNone cacheVerdict = iota + 1
	verdictPattern
	// verdictPrescreened is a "no pattern" verdict decided by the
	// structural prescreen rather than a matcher run: the census proved
	// the view cannot match the kind. It behaves as a decided negative on
	// lookup, distinguished only so the skip-rate accounting can tell
	// prescreen answers from matcher answers.
	verdictPrescreened
)

type cacheEntry struct {
	verdict cacheVerdict
	pat     *patterns.Pattern
}

// lookupStatus is the outcome of a cache lookup.
type lookupStatus uint8

const (
	// cacheMiss: no entry; run the solve and store the verdict.
	cacheMiss lookupStatus = iota
	// cacheHit: a verdict was returned.
	cacheHit
	// cacheHitPrescreened: a decided "no pattern" verdict produced by the
	// structural prescreen was returned. Callers treat it as a hit and
	// additionally book it as prescreen-answered.
	cacheHitPrescreened
)

// NewViewCache returns an empty cache, ready to be passed as
// Options.Cache to share verdicts across Find runs — sequential or
// concurrent.
func NewViewCache() *ViewCache {
	return &ViewCache{}
}

// acquire binds a run to its fingerprint's generation, creating it (and
// evicting the least-recently-acquired one beyond the bound) when absent.
// The returned handle is what the finder consults and populates; distinct
// fingerprints receive disjoint handles, which is the whole concurrency
// story — tenant A's graph can no longer evict tenant B's warm verdicts
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
		entries: map[cacheKey]cacheEntry{},
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

// lookup consults the cache for the view's verdict under kind.
func (rc *runCache) lookup(view ddg.Hash128, kind patterns.Kind) (lookupStatus, *patterns.Pattern) {
	if rc == nil {
		return cacheMiss, nil
	}
	rc.c.mu.RLock()
	defer rc.c.mu.RUnlock()
	e, ok := rc.g.entries[cacheKey{view, kind}]
	if !ok {
		return cacheMiss, nil
	}
	if e.verdict == verdictPrescreened {
		return cacheHitPrescreened, nil
	}
	return cacheHit, e.pat
}

// store records the verdict of a solve that ran: the verified pattern, or
// "no pattern" (pat nil).
//
// Verdicts are first-write-wins: when concurrent runs race the same solve
// (both missed before either stored), the first stored answer stands and
// the loser's — by determinism, identical — result is discarded, so later
// readers can never observe a verdict flip.
func (rc *runCache) store(view ddg.Hash128, kind patterns.Kind, pat *patterns.Pattern) {
	if rc == nil {
		return
	}
	e := cacheEntry{verdict: verdictNone, pat: pat}
	if pat != nil {
		e.verdict = verdictPattern
		// Materialize the pattern's node-set memo before publication, so
		// consumers of the shared entry start from an immutable pattern
		// (the sync.Once guard makes even a cold memo safe; this keeps
		// the common path contention-free).
		pat.Nodes()
	}
	rc.c.mu.Lock()
	defer rc.c.mu.Unlock()
	key := cacheKey{view, kind}
	if _, ok := rc.g.entries[key]; ok {
		return // first write wins
	}
	rc.g.entries[key] = e
}

// storePrescreened records a prescreen-decided "no pattern" verdict: the
// structural census proved the view cannot match kind, so no matcher ran
// and none ever needs to for this (view, kind) under this fingerprint.
// Like store, it never replaces a stored verdict: a concurrent matcher
// run that already stored its (by prescreen soundness, nil) answer wins,
// and in particular a stored pattern can never be silently demoted to a
// negative by a racing prune.
func (rc *runCache) storePrescreened(view ddg.Hash128, kind patterns.Kind) {
	if rc == nil {
		return
	}
	rc.c.mu.Lock()
	defer rc.c.mu.Unlock()
	key := cacheKey{view, kind}
	if _, ok := rc.g.entries[key]; ok {
		return // first write wins
	}
	rc.g.entries[key] = cacheEntry{verdict: verdictPrescreened}
	rc.g.prescreened++
}

// CacheSnapshot describes a cache's current contents, summed across its
// retained generations. The daemon's /stats document renders it as its
// cache block.
type CacheSnapshot struct {
	// Entries is the number of stored verdicts.
	Entries int `json:"entries"`
	// Prescreened is the number of stored verdicts decided by the
	// structural prescreen (a subset of Entries).
	Prescreened int `json:"prescreened"`
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
		s.Prescreened += g.prescreened
	}
	return s
}

// hashSeedCacheFP tags run fingerprints (cacheFingerprint).
const hashSeedCacheFP = 0x3d9f1b7e5a2c4d69

// cacheFingerprint identifies the matching problem a cache entry answers:
// the simplified graph's content plus every option that changes what a
// solve returns. VerifyMatches is included because verdicts are stored
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
