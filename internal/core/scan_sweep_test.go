package core_test

// Tests of the sweeps that put Find's large serial scans on the run's
// executors: decompose's two scans ("decompose-scan") and the chunks of an
// oversized census ("census").

import (
	"context"
	"strings"
	"sync/atomic"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/sched"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// longMD5 is the traced md5 seq program over two 8,192-word buffers,
// whose input loop holds more members than one census chunk, and the
// options that keep its views past the size gate, as for the pipebench
// md5-long workload.
func longMD5(t *testing.T) (*ddg.Graph, core.Options) {
	t.Helper()
	built := starbench.MD5().Build(starbench.Seq, starbench.Params{"nbuf": 2, "bufwords": 8192, "nproc": 2})
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	return tr.Graph, core.Options{MaxViewGroups: 1 << 20}
}

// countItems installs a sweep item hook that counts the items of phase,
// calling also (when non-nil) before each, and removes it at cleanup.
func countItems(t *testing.T, phase string, also func(n int64)) *atomic.Int64 {
	var n atomic.Int64
	core.SetSweepItemHook(func(p string) {
		if p == phase {
			k := n.Add(1)
			if also != nil {
				also(k)
			}
		}
	})
	t.Cleanup(func() { core.SetSweepItemHook(nil) })
	return &n
}

// TestChunkedCensusMatchesInline: on a graph with a sub-DDG larger than
// one census chunk, counting its census in chunks ahead of the match
// sweep changes nothing a run reports — patterns, matches, pool, the
// prescreen checks and the census reads — against counting every census
// inside its match item: on two executors and on one, under the default
// size gate, which skips the oversized views, so that no chunk runs, and
// on a warm view cache, which answers every sub-DDG, so that none runs
// either.
func TestChunkedCensusMatchesInline(t *testing.T) {
	g, opts := longMD5(t)
	cache := core.NewViewCache()
	cases := []struct {
		name    string
		opts    core.Options
		chunked bool // whether census chunks must run
	}{
		{"two executors", opts, true},
		{"one executor", opts, true},
		{"default gate", core.Options{}, false},
		{"cold cache", core.Options{MaxViewGroups: opts.MaxViewGroups, Cache: cache}, true},
		{"warm cache", core.Options{MaxViewGroups: opts.MaxViewGroups, Cache: cache}, false},
	}
	for _, tc := range cases {
		workers := 1
		if tc.name == "one executor" {
			workers = 0
		}
		pool := sched.NewPool(workers, nil)
		tc.opts.Scheduler = pool
		ref := tc.opts
		ref.Cache = nil // the cache's state is the chunked run's alone
		if tc.name == "warm cache" {
			ref.Cache = core.NewViewCache()
			core.Find(g, ref)
		}
		want := core.Find(g, core.WithInlineCensus(ref))
		chunks := countItems(t, "census", nil)
		got := core.Find(g, tc.opts)
		core.SetSweepItemHook(nil)
		pool.Close()
		if n := chunks.Load(); tc.chunked != (n >= 2) || !tc.chunked && n != 0 {
			t.Fatalf("%s: %d census chunks ran; want chunks: %v", tc.name, n, tc.chunked)
		}
		if len(got.Failures)+len(want.Failures) > 0 || got.Interrupted || want.Interrupted {
			t.Fatalf("%s: failed or interrupted runs: %v / %v", tc.name, got.Failures, want.Failures)
		}
		if got.SkippedViews != want.SkippedViews {
			t.Errorf("%s: %d views skipped, inline %d", tc.name, got.SkippedViews, want.SkippedViews)
		}
		if a, b := findSig(got), findSig(want); a != b {
			t.Errorf("%s: chunked census run\n%s\ninline census run\n%s", tc.name, a, b)
		}
		if got.PrescreenChecks != want.PrescreenChecks || got.CensusReads != want.CensusReads || got.PoolSize != want.PoolSize {
			t.Errorf("%s: checks/reads/pool %d/%d/%d, inline %d/%d/%d", tc.name,
				got.PrescreenChecks, got.CensusReads, got.PoolSize, want.PrescreenChecks, want.CensusReads, want.PoolSize)
		}
	}
}

// TestCensusChunkPanicContained: a panic in one census chunk is one
// contained failure; its sub-DDG's census is counted inline instead, so
// the run reports what a clean one does, labelled degraded.
func TestCensusChunkPanicContained(t *testing.T) {
	g, opts := longMD5(t)
	want := core.Find(g, opts)
	countItems(t, "census", func(n int64) {
		if n == 1 {
			panic("injected census failure")
		}
	})
	got := core.Find(g, opts)
	if len(got.Failures) != 1 || !strings.Contains(got.Failures[0].Error(), "census task failed") {
		t.Fatalf("failures = %v, want one census task failure", got.Failures)
	}
	if !got.Degraded() || got.Interrupted {
		t.Errorf("degraded=%v interrupted=%v; want a degraded, uninterrupted run", got.Degraded(), got.Interrupted)
	}
	if a, b := findSig(got), findSig(want); a != b {
		t.Errorf("after a failed chunk\n%s\nclean run\n%s", a, b)
	}
	if got.PrescreenChecks != want.PrescreenChecks || got.CensusReads != want.CensusReads {
		t.Errorf("checks/reads %d/%d, clean run %d/%d", got.PrescreenChecks, got.CensusReads, want.PrescreenChecks, want.CensusReads)
	}
}

// TestCensusSweepCancelled: a context that ends during the census sweep
// labels the run Interrupted, with no failure, and no sub-DDG is matched
// after it: the chunks left unrun leave their census uncounted.
func TestCensusSweepCancelled(t *testing.T) {
	g, opts := longMD5(t)
	pool := sched.NewPool(0, nil)
	defer pool.Close()
	opts.Scheduler = pool
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	chunks := countItems(t, "census", func(int64) { cancel() })
	res := core.FindCtx(ctx, g, opts)
	if chunks.Load() != 1 {
		t.Errorf("%d census chunks ran; want the claimer to stop after the cancel in the first", chunks.Load())
	}
	if !res.Interrupted || len(res.Failures) != 0 || len(res.Matches) != 0 {
		t.Errorf("interrupted=%v failures=%v matches=%d; want Interrupted, no failure and no match",
			res.Interrupted, res.Failures, len(res.Matches))
	}
}

// TestDecomposeScanPanicKeepsTheOtherScan: a panic in one of decompose's
// two scans is one contained failure and costs only that scan's
// sub-DDGs: the loop sub-DDGs survive a failed associative scan and the
// associative ones a failed loop scan. On a pool with no workers the
// scans run in item order, the associative scan first.
func TestDecomposeScanPanicKeepsTheOtherScan(t *testing.T) {
	g := decomposeTestGraph(t)
	var loops, assocs []*core.SubDDG
	for _, s := range oracleDecompose(g) {
		if s.Assoc {
			assocs = append(assocs, s)
		} else {
			loops = append(loops, s)
		}
	}
	if len(loops) == 0 || len(assocs) == 0 {
		t.Fatal("want a graph with loop and associative sub-DDGs")
	}
	pool := sched.NewPool(0, nil)
	defer pool.Close()
	for item, keep := range [][]*core.SubDDG{loops, assocs} {
		countItems(t, "decompose-scan", func(n int64) {
			if n == int64(item+1) {
				panic("injected scan failure")
			}
		})
		subs, res := core.DecomposeOn(context.Background(), pool, g)
		if got, want := renderSubs(subs), renderSubs(keep); got != want {
			t.Errorf("scan %d failed; decomposed\n%s\nwant\n%s", item, got, want)
		}
		if len(res.Failures) != 1 || !strings.Contains(res.Failures[0].Error(), "decompose-scan task failed") {
			t.Errorf("scan %d failed; failures = %v, want one decompose-scan task failure", item, res.Failures)
		}
		if !res.Degraded() || res.Interrupted {
			t.Errorf("scan %d failed; degraded=%v interrupted=%v, want degraded only", item, res.Degraded(), res.Interrupted)
		}
	}

	// Through Find: the run is degraded, and keeps matching what the
	// surviving scan decomposed.
	countItems(t, "decompose-scan", func(n int64) {
		if n == 2 {
			panic("injected scan failure")
		}
	})
	res := core.Find(g, core.Options{Scheduler: pool, DisableSimplify: true})
	if len(res.Failures) != 1 || !res.Degraded() || len(res.Patterns) == 0 {
		t.Errorf("Find after a failed loop scan: failures %v, %d patterns; want one failure and the associative patterns",
			res.Failures, len(res.Patterns))
	}
}

// TestDecomposeScanCancelledBeforeSweep: a context cancelled before the
// scan sweep starts runs neither scan and labels the run Interrupted, with
// no failure and an empty pool.
func TestDecomposeScanCancelledBeforeSweep(t *testing.T) {
	g := decomposeTestGraph(t)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	scans := countItems(t, "decompose-scan", nil)
	res := core.FindCtx(ctx, g, core.Options{DisableSimplify: true, PhaseHook: func(phase string) {
		if phase == "decompose" {
			cancel()
		}
	}})
	if scans.Load() != 0 {
		t.Errorf("%d scans ran after the cancel", scans.Load())
	}
	if !res.Interrupted || len(res.Failures) != 0 || res.PoolSize != 0 {
		t.Errorf("interrupted=%v failures=%v pool=%d; want Interrupted, no failure and an empty pool",
			res.Interrupted, res.Failures, res.PoolSize)
	}
}
