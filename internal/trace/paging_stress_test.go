package trace_test

// Concurrency stress for the out-of-core pager, run under -race by make
// race: a finder pages a previous graph's cold segments while a fresh
// 8-thread trace folds iteration runs in its unsynchronized per-thread
// buffers, and a pack of readers hammers a two-segment resident set to
// force constant eviction. Paging must never change which bytes a read
// returns, no matter how the scheduler interleaves faults and evictions.

import (
	"sync"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// TestRaceFindPagesWhileTracing runs the full finder over a spilled
// previous graph — every matcher read faults cold segments through the
// pager — while the tracer runs an 8-thread kernel with online compaction
// in the foreground. The two share nothing but the Go runtime; -race
// proves it.
func TestRaceFindPagesWhileTracing(t *testing.T) {
	prev := starbench.ByName("md5")
	prevBuilt := prev.Build(starbench.Pthreads, starbench.Params{"nbuf": 8, "bufwords": 4, "nproc": 8})
	prevRes, err := trace.Run(prevBuilt.Prog, vm.WithMaxOps(1<<24))
	if err != nil {
		t.Fatalf("trace.Run (previous graph): %v", err)
	}
	want := fingerprint(prevRes.Graph)
	if err := prevRes.Graph.SpillArcs(ddg.SpillConfig{Dir: t.TempDir(), Budget: 512, SegmentBytes: 128}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer prevRes.Graph.CloseSpill()

	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		res := core.Find(prevRes.Graph, core.Options{})
		res.Graph.CloseSpill() // simplified copy; no-op unless it spilled
	}()

	for _, tc := range stressCases() {
		b := starbench.ByName(tc.name)
		built := b.Build(starbench.Pthreads, tc.params)
		res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
		if err != nil {
			t.Fatalf("trace.Run (%s): %v", tc.name, err)
		}
		if !res.Graph.HasIterIndexes() {
			t.Errorf("%s: compact trace carries no iteration indexes", tc.name)
		}
		if err := res.Graph.CheckInvariants(); err != nil {
			t.Errorf("%s: %v", tc.name, err)
		}
	}
	wg.Wait()

	if got := fingerprint(prevRes.Graph); got != want {
		t.Fatal("paged adjacency diverged from the resident graph after a concurrent Find")
	}
	if st := prevRes.Graph.PageStats(); st.Faults == 0 {
		t.Fatalf("the concurrent Find never faulted a segment: %+v", st)
	}
}

// TestEvictionThrashConcurrentReads spills a graph with room for roughly
// two resident segments and lets eight readers render the full adjacency
// concurrently. Every rendering must match the resident baseline even
// though each one forces the others' segments out — returned slices alias
// immutable segment buffers, so a reader racing an eviction keeps a live,
// correct buffer.
func TestEvictionThrashConcurrentReads(t *testing.T) {
	b := starbench.ByName("kmeans")
	built := b.Build(starbench.Pthreads, starbench.Params{"n": 8, "dims": 2, "k": 2, "nproc": 8})
	res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
	if err != nil {
		t.Fatalf("trace.Run: %v", err)
	}
	want := fingerprint(res.Graph)
	if err := res.Graph.SpillArcs(ddg.SpillConfig{Dir: t.TempDir(), Budget: 256, SegmentBytes: 128}); err != nil {
		t.Fatalf("SpillArcs: %v", err)
	}
	defer res.Graph.CloseSpill()

	var wg sync.WaitGroup
	errs := make(chan string, 8)
	for r := 0; r < 8; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 4; i++ {
				if got := fingerprint(res.Graph); got != want {
					errs <- "thrashed rendering differs from the resident baseline"
					return
				}
			}
		}()
	}
	wg.Wait()
	close(errs)
	for msg := range errs {
		t.Fatal(msg)
	}
	st := res.Graph.PageStats()
	if st.Evictions == 0 {
		t.Fatalf("two-segment budget never evicted: %+v", st)
	}
	if st.Faults <= int64(st.Segments) {
		t.Fatalf("thrash never re-faulted a segment: %+v", st)
	}
}
