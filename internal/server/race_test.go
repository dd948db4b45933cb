package server

import (
	"encoding/json"
	"fmt"
	"sync"
	"testing"

	"discovery/internal/core"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// semanticReport strips the volatile diagnostics from a report document —
// wall-clock elapsed times and the solver/cache effort counters, which
// legitimately differ between cache-on and cache-off runs — leaving the
// analysis answer: graph sizes, iterations, matches, patterns, and the
// degradation flags. Cache and prescreen must never change these (the
// soundness property the core equivalence tests pin down per-run).
func semanticReport(doc []byte) (string, error) {
	var s report.SummaryJSON
	if err := json.Unmarshal(doc, &s); err != nil {
		return "", fmt.Errorf("parsing report: %v", err)
	}
	s.Diagnostics.Solver = nil
	s.Diagnostics.Cache = nil
	s.Diagnostics.Prescreen = nil
	out, err := json.Marshal(s)
	if err != nil {
		return "", err
	}
	return string(out), nil
}

// TestConcurrentRequestsMatchDirectRuns hammers the daemon with a mix of
// workloads from many goroutines — identical and differing fingerprints
// interleaving on the shared ViewCache and the store — and compares every
// report's semantic content against a direct, cache-off, store-off run of
// the same analysis. Run under -race this is the serving layer's half of the
// satellite stress test: internal/core proves FindCtx runs can share a
// ViewCache; this proves the daemon's batcher, store, and tee recorder
// preserve that soundness end to end.
func TestConcurrentRequestsMatchDirectRuns(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run stress test")
	}
	workloads := []struct {
		bench   string
		version starbench.Version
		opts    core.Options
		body    string
	}{
		{"md5", starbench.Seq, core.Options{},
			`{"bench":"md5","version":"seq"}`},
		{"md5", starbench.Pthreads, core.Options{VerifyMatches: true},
			`{"bench":"md5","version":"pthreads","options":{"verify":true}}`},
		{"rgbyuv", starbench.Seq, core.Options{},
			`{"bench":"rgbyuv","version":"seq"}`},
	}

	// Ground truth: direct runs with every serving-layer mechanism off.
	want := make([]string, len(workloads))
	for i, wl := range workloads {
		b := lookupBenchmark(wl.bench)
		if b == nil {
			t.Fatalf("benchmark %s missing", wl.bench)
		}
		built := b.Build(wl.version, b.Analysis)
		tr, err := trace.Run(built.Prog)
		if err != nil {
			t.Fatal(err)
		}
		opts := wl.opts
		opts.DisableCache = true
		res := core.Find(tr.Graph, opts)
		doc, err := report.JSON(res)
		if err != nil {
			t.Fatal(err)
		}
		sig, err := semanticReport(doc)
		if err != nil {
			t.Fatal(err)
		}
		want[i] = sig
	}

	s, ts := newTestServer(t, Config{MaxInFlight: 4, QueueDepth: 64})

	const goroutines = 8
	const rounds = 3
	var wg sync.WaitGroup
	errs := make(chan error, goroutines*rounds)
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for r := 0; r < rounds; r++ {
				i := (g + r) % len(workloads)
				resp, code, err := analyzeErr(ts, workloads[i].body)
				if err != nil {
					errs <- err
					return
				}
				if code != 200 {
					errs <- fmt.Errorf("goroutine %d round %d: status %d", g, r, code)
					return
				}
				got, err := semanticReport(resp.Report)
				if err != nil {
					errs <- err
					return
				}
				if got != want[i] {
					errs <- fmt.Errorf("goroutine %d round %d (%s): report differs from direct run:\n got %s\nwant %s",
						g, r, workloads[i].bench, got, want[i])
					return
				}
				if resp.Diagnostics.Degraded {
					errs <- fmt.Errorf("goroutine %d round %d: degraded under test conditions", g, r)
					return
				}
			}
		}(g)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Error(err)
	}

	// Every distinct (graph, options) fingerprint holds its own cache
	// generation; nothing evicted under the default bound.
	snap := s.cache.Snapshot()
	if snap.Resets != 0 {
		t.Errorf("cache evicted generations under capacity: %+v", snap)
	}
	if n, _ := s.st.Len(); n != 2*len(workloads) {
		t.Errorf("store entries: %d, want %d (result+index per workload)", n, 2*len(workloads))
	}
}
