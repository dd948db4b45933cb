package core

import (
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/patterns"
)

func TestViewCacheVerdicts(t *testing.T) {
	c := NewViewCache()
	rc := c.acquire(ddg.Hash128{Hi: 1, Lo: 2})

	kA := ddg.Hash128{Hi: 10, Lo: 1}
	kB := ddg.Hash128{Hi: 10, Lo: 2}
	if _, ok := rc.lookup(kA); ok {
		t.Fatal("empty cache: want a miss")
	}

	// A skipped sub-DDG's entry: no patterns, no kinds.
	rc.store(kA, cacheEntry{skipped: true})
	if e, ok := rc.lookup(kA); !ok || !e.skipped || e.pats != nil || e.kinds != nil {
		t.Errorf("skipped entry: got %+v, %v", e, ok)
	}

	// A matched sub-DDG's entry hands back its patterns and booked kinds.
	pat := &patterns.Pattern{Kind: patterns.KindMap}
	kinds := []patterns.Kind{patterns.KindMap, patterns.KindLinearReduction}
	rc.store(kB, cacheEntry{pats: []*patterns.Pattern{pat}, kinds: kinds})
	e, ok := rc.lookup(kB)
	if !ok || e.skipped || len(e.pats) != 1 || e.pats[0] != pat || len(e.kinds) != 2 {
		t.Errorf("matched entry: got %+v, %v", e, ok)
	}
	if s := c.Snapshot(); s.Entries != 2 {
		t.Errorf("want 2 entries, got %+v", s)
	}
}

// TestViewCacheGenerationsIsolateFingerprints is the cross-run
// invalidation bugfix: two run fingerprints sharing one cache keep
// disjoint, simultaneously-warm entry sets, where the old destructive
// prepare wiped everything whenever the fingerprint changed.
func TestViewCacheGenerationsIsolateFingerprints(t *testing.T) {
	c := NewViewCache()
	fp1 := ddg.Hash128{Hi: 1}
	fp2 := ddg.Hash128{Hi: 2}
	k := ddg.Hash128{Lo: 9}

	c.acquire(fp1).store(k, cacheEntry{})
	if s := c.Snapshot(); s.Entries != 1 || s.Generations != 1 || s.Evictions != 0 {
		t.Fatalf("after store: %+v", s)
	}

	// Same fingerprint: the same generation, contents shared.
	if _, ok := c.acquire(fp1).lookup(k); !ok {
		t.Error("same fp re-acquire must share entries")
	}

	// A different fingerprint sees none of fp1's entries...
	rc2 := c.acquire(fp2)
	if _, ok := rc2.lookup(k); ok {
		t.Error("other generation must not see fp1 entries")
	}
	rc2.store(k, cacheEntry{})

	// ...and — the bugfix — fp1's entries survive fp2's run.
	if s := c.Snapshot(); s.Entries != 2 || s.Generations != 2 || s.Evictions != 0 {
		t.Errorf("both generations must coexist: %+v", s)
	}
	if _, ok := c.acquire(fp1).lookup(k); !ok {
		t.Error("fp1 entries must survive a run under fp2")
	}
}

func TestViewCacheGenerationLRUBound(t *testing.T) {
	c := NewViewCache()
	k := ddg.Hash128{Lo: 9}
	store := func(hi uint64) { c.acquire(ddg.Hash128{Hi: hi}).store(k, cacheEntry{}) }

	for hi := uint64(1); hi <= maxGenerations; hi++ {
		store(hi)
	}
	if s := c.Snapshot(); s.Generations != maxGenerations || s.Evictions != 0 {
		t.Fatalf("want %d generations and no eviction at the bound, got %+v", maxGenerations, s)
	}
	c.acquire(ddg.Hash128{Hi: 1}) // refresh 1: now 2 is the LRU victim
	store(maxGenerations + 1)     // evicts 2

	s := c.Snapshot()
	if s.Generations != maxGenerations || s.Evictions != 1 {
		t.Fatalf("want %d generations after 1 eviction, got %+v", maxGenerations, s)
	}
	if _, ok := c.acquire(ddg.Hash128{Hi: 1}).lookup(k); !ok {
		t.Error("recently-used generation 1 must survive")
	}
	if _, ok := c.acquire(ddg.Hash128{Hi: 2}).lookup(k); ok {
		t.Error("LRU generation 2 must have been evicted")
	}
	// Re-admitting 2 evicted another generation (the map stays bounded).
	if s := c.Snapshot(); s.Generations != maxGenerations || s.Evictions != 2 {
		t.Errorf("bound must hold after re-admission: %+v", s)
	}
}

// TestViewCacheDecidedFirstWriteWins: once a key holds an entry, a racing
// store of another outcome for the same key never replaces it, so every
// reader observes the first stored outcome.
func TestViewCacheDecidedFirstWriteWins(t *testing.T) {
	c := NewViewCache()
	rc := c.acquire(ddg.Hash128{Hi: 5})
	k := ddg.Hash128{Hi: 8, Lo: 8}
	pat := &patterns.Pattern{Kind: patterns.KindMap}

	rc.store(k, cacheEntry{pats: []*patterns.Pattern{pat}})
	rc.store(k, cacheEntry{skipped: true})
	rc.store(k, cacheEntry{})
	if e, _ := rc.lookup(k); e.skipped || len(e.pats) != 1 || e.pats[0] != pat {
		t.Fatalf("a later store replaced the first: %+v", e)
	}
	if s := c.Snapshot(); s.Entries != 1 {
		t.Errorf("suppressed stores must not count: %+v", s)
	}
}

func TestViewCacheNilSafe(t *testing.T) {
	var c *ViewCache
	rc := c.acquire(ddg.Hash128{Hi: 1})
	if rc != nil {
		t.Fatal("nil cache acquire must return a nil handle")
	}
	rc.store(ddg.Hash128{}, cacheEntry{skipped: true})
	if _, ok := rc.lookup(ddg.Hash128{}); ok {
		t.Error("nil cache lookup: want a miss")
	}
	if s := c.Snapshot(); s != (CacheSnapshot{}) {
		t.Errorf("nil cache snapshot: %+v", s)
	}
}

// TestMatchSubStoresOnlyCleanOutcomes: a match item stores its sub-DDG's
// outcome under the pool key, except when it contained a failure — then
// no entry is stored, and a later run matches the sub-DDG again.
func TestMatchSubStoresOnlyCleanOutcomes(t *testing.T) {
	g := traceProgram(t, genProgram(7))
	rc := NewViewCache().acquire(ddg.Hash128{Hi: 1})
	mp := &matchPhase{gs: g, cache: rc, rec: obs.OrNop(nil), compact: true}
	good := &SubDDG{Nodes: g.Nodes()}
	bad := &SubDDG{Nodes: ddg.NewSet(ddg.NodeID(g.NumNodes() + 5))} // not a node of g
	mp.matchSub(good, nil)
	mp.matchSub(bad, nil)
	if len(mp.fails) != 1 {
		t.Fatalf("want the bad sub-DDG's one contained failure, got %v", mp.fails)
	}
	e, ok := rc.lookup(good.Key())
	if !ok || len(e.kinds) == 0 {
		t.Errorf("clean outcome not stored with its kinds: %+v, %v", e, ok)
	}
	if _, ok := rc.lookup(bad.Key()); ok {
		t.Error("an outcome with a contained failure was stored")
	}
}

func TestCacheFingerprintSensitivity(t *testing.T) {
	g := traceProgram(t, genProgram(7))
	base := cacheFingerprint(g, Options{})
	for _, tc := range []struct {
		name string
		opts Options
	}{
		{"verify", Options{VerifyMatches: true}},
		{"extensions", Options{Extensions: true}},
		{"no-compact", Options{DisableCompact: true}},
		{"view-groups", Options{MaxViewGroups: 17}},
	} {
		if cacheFingerprint(g, tc.opts) == base {
			t.Errorf("%s must change the cache fingerprint", tc.name)
		}
	}
	// The global budget must NOT change it: it decides which solves run,
	// never what a solve returns.
	if cacheFingerprint(g, Options{Budget: 1}) != base {
		t.Error("the budget must not invalidate the cache")
	}
	// And a different graph must.
	g2 := traceProgram(t, genProgram(8))
	if cacheFingerprint(g2, Options{}) == base {
		t.Error("different graphs must fingerprint differently")
	}
}
