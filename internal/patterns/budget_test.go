package patterns

import (
	"testing"
	"time"
)

func TestBudgetMerge(t *testing.T) {
	a := &Budget{Kinds: map[Kind]*KindStats{
		KindLinearReduction: {Runs: 2, Solutions: 1, CacheMisses: 4},
	}}
	b := &Budget{Kinds: map[Kind]*KindStats{
		KindLinearReduction: {Runs: 1, Elapsed: time.Millisecond},
		KindTiledReduction:  {Runs: 3, Solutions: 2},
	}}
	b.Merge(a)
	lr := b.Kinds[KindLinearReduction]
	if lr.Runs != 3 || lr.Solutions != 1 || lr.CacheMisses != 4 || lr.Elapsed != time.Millisecond {
		t.Errorf("merged linear stats = %+v", lr)
	}
	if tr := b.Kinds[KindTiledReduction]; tr.Runs != 3 || tr.Solutions != 2 {
		t.Errorf("merged tiled stats = %+v", tr)
	}
	// Merging must not alias the source's entries.
	a.Kinds[KindLinearReduction].Runs = 99
	if b.Kinds[KindLinearReduction].Runs != 3 {
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
	ks := b.Kinds[KindTiledReduction]
	if ks.Runs != 2 || ks.Solutions != 1 || ks.Elapsed != 3*time.Millisecond {
		t.Errorf("tiled stats = %+v, want 2 runs, 1 solution, 3ms", ks)
	}
	var nilBudget *Budget
	nilBudget.RecordRun(KindLinearReduction, true, time.Second)
	nilBudget.RecordCacheHit(KindLinearReduction)
	nilBudget.Merge(b)
}
