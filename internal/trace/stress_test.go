package trace_test

// Concurrency stress and determinism tests for the parallel-native tracer.
// They live in an external test package because they trace starbench
// kernels and starbench itself imports trace.
//
// Run with -race (make race does): the 8-thread runs exercise the
// unsynchronized per-thread buffers, the paged shadow memory's lock-free
// fast paths, and the VM's paged heap under real parallelism.

import (
	"fmt"
	"testing"

	"discovery/internal/ddg"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// stressCases are pthreads kernels with inputs scaled so the work splits
// over 8 worker threads (blockRange requires divisibility).
func stressCases() []struct {
	name   string
	params starbench.Params
} {
	return []struct {
		name   string
		params starbench.Params
	}{
		{"md5", starbench.Params{"nbuf": 8, "bufwords": 4, "nproc": 8}},
		{"rgbyuv", starbench.Params{"w": 8, "h": 4, "nproc": 8}},
		{"kmeans", starbench.Params{"n": 8, "dims": 2, "k": 2, "nproc": 8}},
	}
}

// fingerprint renders every per-node fact and both adjacency lists into a
// byte-for-byte comparable string.
func fingerprint(g *ddg.Graph) string {
	s := fmt.Sprintf("nodes=%d arcs=%d\n", g.NumNodes(), g.NumArcs())
	for u := ddg.NodeID(0); int(u) < g.NumNodes(); u++ {
		scope := "-"
		if sc := g.ScopeOf(u); sc != nil {
			scope = sc.String()
		}
		s += fmt.Sprintf("%d op=%v pos=%s:%d thread=%d scope=%s succ=%v pred=%v\n",
			u, g.Op(u), g.Pos(u).File, g.Pos(u).Line, g.Thread(u), scope,
			g.Succs(u), g.Preds(u))
	}
	return s
}

// TestStress8Threads traces pthreads kernels with 8 worker threads. Under
// -race this is the tracer's main concurrency soak test.
func TestStress8Threads(t *testing.T) {
	for _, tc := range stressCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b := starbench.ByName(tc.name)
			if b == nil {
				t.Fatalf("unknown benchmark %q", tc.name)
			}
			built := b.Build(starbench.Pthreads, tc.params)
			res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			if res.Graph.NumNodes() == 0 {
				t.Fatal("empty DDG")
			}
			threads := map[int32]bool{}
			for u := ddg.NodeID(0); int(u) < res.Graph.NumNodes(); u++ {
				threads[res.Graph.Thread(u)] = true
			}
			// main + 8 workers.
			if len(threads) != 9 {
				t.Fatalf("DDG spans %d threads, want 9", len(threads))
			}
		})
	}
}

// TestDeterminism8Threads asserts the merged DDG is byte-for-byte
// identical across repeated 8-thread runs, independent of how the Go
// scheduler interleaved each one.
func TestDeterminism8Threads(t *testing.T) {
	for _, tc := range stressCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b := starbench.ByName(tc.name)
			built := b.Build(starbench.Pthreads, tc.params)
			var want string
			for run := 0; run < 5; run++ {
				res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
				if err != nil {
					t.Fatalf("run %d: %v", run, err)
				}
				fp := fingerprint(res.Graph)
				if run == 0 {
					want = fp
					continue
				}
				if fp != want {
					t.Fatalf("run %d produced a different DDG than run 0", run)
				}
			}
		})
	}
}

// TestLegacyEquivalencePthreads asserts the per-thread tracer builds the
// same DDG as the seed's single-lock tracer. Legacy node ids follow the
// scheduler's interleaving, so the legacy graph is first renumbered by
// the same deterministic merge (Canonicalize); after that the two graphs
// must be byte-for-byte identical.
func TestLegacyEquivalencePthreads(t *testing.T) {
	for _, tc := range stressCases() {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			t.Parallel()
			b := starbench.ByName(tc.name)
			built := b.Build(starbench.Pthreads, tc.params)
			res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			leg, err := trace.RunLegacy(built.Prog, vm.WithMaxOps(1<<24))
			if err != nil {
				t.Fatalf("trace.RunLegacy: %v", err)
			}
			canon, err := trace.Canonicalize(leg.Graph)
			if err != nil {
				t.Fatalf("trace.Canonicalize: %v", err)
			}
			if got, want := fingerprint(canon), fingerprint(res.Graph); got != want {
				t.Fatal("canonicalized legacy DDG differs from per-thread tracer DDG")
			}
		})
	}
}

// TestLegacyEquivalenceSeq asserts that for single-threaded traces the
// per-thread tracer reproduces the legacy tracer's graph exactly — same
// node numbering, same arc order — without any renumbering. This is what
// keeps the paper-table outputs (Tables 1 and 3) bit-identical to the
// seed.
func TestLegacyEquivalenceSeq(t *testing.T) {
	for _, b := range starbench.All() {
		b := b
		t.Run(b.Name, func(t *testing.T) {
			t.Parallel()
			built := b.Build(starbench.Seq, b.Analysis)
			res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<24))
			if err != nil {
				t.Fatalf("trace.Run: %v", err)
			}
			leg, err := trace.RunLegacy(built.Prog, vm.WithMaxOps(1<<24))
			if err != nil {
				t.Fatalf("trace.RunLegacy: %v", err)
			}
			if got, want := fingerprint(res.Graph), fingerprint(leg.Graph); got != want {
				t.Fatal("per-thread tracer DDG differs from legacy DDG on a sequential trace")
			}
			// And Canonicalize is the identity on canonical graphs.
			canon, err := trace.Canonicalize(res.Graph)
			if err != nil {
				t.Fatalf("trace.Canonicalize: %v", err)
			}
			if got := fingerprint(canon); got != fingerprint(res.Graph) {
				t.Fatal("Canonicalize is not the identity on a canonical graph")
			}
		})
	}
}
