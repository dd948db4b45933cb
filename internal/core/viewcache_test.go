package core

import (
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/patterns"
)

func TestViewCacheVerdicts(t *testing.T) {
	c := NewViewCache()
	fp := ddg.Hash128{Hi: 1, Lo: 2}
	rc := c.acquire(fp)

	vA := ddg.Hash128{Hi: 10, Lo: 1}
	vB := ddg.Hash128{Hi: 10, Lo: 2}

	if st, _ := rc.lookup(vA, patterns.KindMap); st != cacheMiss {
		t.Fatalf("empty cache: want miss, got %v", st)
	}

	// "no pattern" verdict hits with a nil pattern.
	rc.store(vA, patterns.KindMap, nil)
	if st, p := rc.lookup(vA, patterns.KindMap); st != cacheHit || p != nil {
		t.Errorf("no-pattern entry: want hit/nil, got %v/%v", st, p)
	}

	// A pattern verdict hits with the stored pattern.
	pat := &patterns.Pattern{Kind: patterns.KindMap}
	rc.store(vB, patterns.KindMap, pat)
	if st, p := rc.lookup(vB, patterns.KindMap); st != cacheHit || p != pat {
		t.Errorf("pattern entry: want hit with pattern, got %v/%v", st, p)
	}

	// Verdicts are per kind: the same view under another kind is a miss.
	if st, _ := rc.lookup(vB, patterns.KindLinearReduction); st != cacheMiss {
		t.Errorf("other kind: want miss, got %v", st)
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
	v := ddg.Hash128{Lo: 9}

	rc1 := c.acquire(fp1)
	rc1.store(v, patterns.KindMap, nil)
	if s := c.Snapshot(); s.Entries != 1 || s.Generations != 1 || s.Evictions != 0 {
		t.Fatalf("after store: %+v", s)
	}

	// Same fingerprint: the same generation, contents shared.
	if st, _ := c.acquire(fp1).lookup(v, patterns.KindMap); st != cacheHit {
		t.Errorf("same fp re-acquire must share entries: got %v", st)
	}

	// A different fingerprint sees none of fp1's entries...
	rc2 := c.acquire(fp2)
	if st, _ := rc2.lookup(v, patterns.KindMap); st != cacheMiss {
		t.Errorf("other generation must not see fp1 entries: got %v", st)
	}
	rc2.store(v, patterns.KindMap, nil)

	// ...and — the bugfix — fp1's entries survive fp2's run.
	if s := c.Snapshot(); s.Entries != 2 || s.Generations != 2 || s.Evictions != 0 {
		t.Errorf("both generations must coexist: %+v", s)
	}
	if st, _ := c.acquire(fp1).lookup(v, patterns.KindMap); st != cacheHit {
		t.Error("fp1 entries must survive a run under fp2")
	}
}

func TestViewCacheGenerationLRUBound(t *testing.T) {
	c := NewViewCache()
	v := ddg.Hash128{Lo: 9}
	store := func(hi uint64) {
		rc := c.acquire(ddg.Hash128{Hi: hi})
		rc.store(v, patterns.KindMap, nil)
	}

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
	if st, _ := c.acquire(ddg.Hash128{Hi: 1}).lookup(v, patterns.KindMap); st != cacheHit {
		t.Error("recently-used generation 1 must survive")
	}
	if st, _ := c.acquire(ddg.Hash128{Hi: 2}).lookup(v, patterns.KindMap); st != cacheMiss {
		t.Error("LRU generation 2 must have been evicted")
	}
	// Re-admitting 2 evicted another generation (the map stays bounded).
	if s := c.Snapshot(); s.Generations != maxGenerations || s.Evictions != 2 {
		t.Errorf("bound must hold after re-admission: %+v", s)
	}
}

// TestViewCacheDecidedFirstWriteWins is the storePrescreened/store
// overwrite regression test: once a decided verdict — in particular a
// stored pattern — is in a (view, kind) slot, neither a racing prescreen
// prune nor a racing solve nor an undecided retry may replace it.
func TestViewCacheDecidedFirstWriteWins(t *testing.T) {
	c := NewViewCache()
	rc := c.acquire(ddg.Hash128{Hi: 5})
	v := ddg.Hash128{Hi: 8, Lo: 8}
	pat := &patterns.Pattern{Kind: patterns.KindMap}

	rc.store(v, patterns.KindMap, pat)

	// A prescreen prune must not demote the stored pattern to a negative.
	rc.storePrescreened(v, patterns.KindMap)
	if st, p := rc.lookup(v, patterns.KindMap); st != cacheHit || p != pat {
		t.Fatalf("prescreen overwrote a decided pattern verdict: %v/%v", st, p)
	}
	if s := c.Snapshot(); s.Prescreened != 0 {
		t.Errorf("suppressed prescreen store must not count: %+v", s)
	}

	// A racing store must not replace the first answer.
	rc.store(v, patterns.KindMap, nil)
	if st, p := rc.lookup(v, patterns.KindMap); st != cacheHit || p != pat {
		t.Fatalf("second store replaced the first: %v/%v", st, p)
	}

	// Prescreened entries are decided too: a later matcher store (racing
	// prune, both answering nil) keeps the prescreened classification.
	v2 := ddg.Hash128{Hi: 8, Lo: 9}
	rc.storePrescreened(v2, patterns.KindMap)
	rc.store(v2, patterns.KindMap, nil)
	if st, _ := rc.lookup(v2, patterns.KindMap); st != cacheHitPrescreened {
		t.Errorf("prescreened verdict must survive a racing matcher store: %v", st)
	}
}

func TestViewCacheNilSafe(t *testing.T) {
	var c *ViewCache
	rc := c.acquire(ddg.Hash128{Hi: 1})
	if rc != nil {
		t.Fatal("nil cache acquire must return a nil handle")
	}
	rc.store(ddg.Hash128{}, patterns.KindMap, nil)
	rc.storePrescreened(ddg.Hash128{}, patterns.KindMap)
	if st, _ := rc.lookup(ddg.Hash128{}, patterns.KindMap); st != cacheMiss {
		t.Errorf("nil cache lookup: want miss, got %v", st)
	}
	if s := c.Snapshot(); s != (CacheSnapshot{}) {
		t.Errorf("nil cache snapshot: %+v", s)
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
