package patterns

import (
	"slices"
	"testing"
	"time"
)

// statsOf returns the tally b booked under kind, read through Each.
func statsOf(b *Budget, kind Kind) KindStats {
	var ks KindStats
	b.Each(func(k Kind, s KindStats) {
		if k == kind {
			ks = s
		}
	})
	return ks
}

func TestBudgetMerge(t *testing.T) {
	a := &Budget{}
	a.RecordRun(KindLinearReduction, true, 0)
	a.RecordRun(KindLinearReduction, false, 0)
	for i := 0; i < 4; i++ {
		a.RecordCacheMiss(KindLinearReduction)
	}
	b := &Budget{}
	b.RecordRun(KindLinearReduction, false, time.Millisecond)
	for i := 0; i < 3; i++ {
		b.RecordRun(KindTiledReduction, i < 2, 0)
	}
	b.Merge(a)
	lr := statsOf(b, KindLinearReduction)
	if lr.Runs != 3 || lr.Solutions != 1 || lr.CacheMisses != 4 || lr.Elapsed != time.Millisecond {
		t.Errorf("merged linear stats = %+v", lr)
	}
	if tr := statsOf(b, KindTiledReduction); tr.Runs != 3 || tr.Solutions != 2 {
		t.Errorf("merged tiled stats = %+v", tr)
	}
	if ks := statsOf(b, KindMap); ks != (KindStats{}) {
		t.Errorf("unbooked kind stats = %+v, want zero", ks)
	}
	// Merging must not alias the source's entries.
	a.RecordRun(KindLinearReduction, false, 0)
	if statsOf(b, KindLinearReduction).Runs != 3 {
		t.Error("Merge aliased source KindStats")
	}
}

// TestBudgetRecordRun: a booked run counts once, a pattern it returned
// counts as a solution, and its wall time accumulates; a nil budget
// records nothing.
func TestBudgetRecordRun(t *testing.T) {
	b := &Budget{}
	b.RecordRun(KindTiledReduction, true, 2*time.Millisecond)
	b.RecordRun(KindTiledReduction, false, time.Millisecond)
	ks := statsOf(b, KindTiledReduction)
	if ks.Runs != 2 || ks.Solutions != 1 || ks.Elapsed != 3*time.Millisecond {
		t.Errorf("tiled stats = %+v, want 2 runs, 1 solution, 3ms", ks)
	}
	var nilBudget *Budget
	nilBudget.RecordRun(KindLinearReduction, true, time.Second)
	nilBudget.RecordCacheHit(KindLinearReduction)
	nilBudget.Merge(b)
	nilBudget.Each(func(Kind, KindStats) { t.Error("nil budget booked a kind") })
	if ks := statsOf(nilBudget, KindTiledReduction); ks != (KindStats{}) {
		t.Errorf("nil budget stats = %+v, want zero", ks)
	}
}

// TestBudgetKindSlots: every kind has its own slot, Each reports it under
// its own kind, and booking allocates nothing.
func TestBudgetKindSlots(t *testing.T) {
	kinds := []Kind{KindMap, KindConditionalMap, KindFusedMap, KindLinearReduction,
		KindTiledReduction, KindLinearMapReduction, KindTiledMapReduction,
		KindStencil, KindTreeReduction, KindPipeline}
	b := &Budget{}
	for i, k := range kinds {
		for j := 0; j <= i; j++ {
			b.RecordCacheMiss(k)
		}
	}
	var got []Kind
	b.Each(func(k Kind, ks KindStats) {
		got = append(got, k)
		if want := slices.Index(kinds, k) + 1; ks.CacheMisses != want {
			t.Errorf("%v: %d misses, want %d", k, ks.CacheMisses, want)
		}
	})
	if !slices.Equal(got, kinds) {
		t.Errorf("Each visited %v, want %v", got, kinds)
	}
	if n := testing.AllocsPerRun(100, func() {
		var b Budget
		b.RecordRun(KindLinearReduction, true, time.Microsecond)
		b.RecordPrescreened(KindMap)
		b.RecordCacheHit(KindPipeline)
	}); n != 0 {
		t.Errorf("booking allocated %.0f times, want 0", n)
	}
}
