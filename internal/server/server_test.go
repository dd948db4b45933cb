package server

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"discovery/internal/store"
)

// newTestServer builds a server over an in-memory store with room for the
// whole registry. Tests that need a different shape pass their own config.
func newTestServer(t *testing.T, cfg Config) (*Server, *httptest.Server) {
	t.Helper()
	if cfg.Store == nil {
		cfg.Store = store.NewMemory()
	}
	s := New(cfg)
	ts := httptest.NewServer(s.Handler())
	t.Cleanup(func() {
		ts.Close()
		s.Close()
		cfg.Store.Close()
	})
	return s, ts
}

// analyzeErr submits a request and decodes the envelope; safe to call
// from any goroutine.
func analyzeErr(ts *httptest.Server, body string) (*Response, int, error) {
	resp, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	var out Response
	if resp.StatusCode == 200 {
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			return nil, resp.StatusCode, fmt.Errorf("decoding response: %v", err)
		}
	}
	return &out, resp.StatusCode, nil
}

func analyze(t *testing.T, ts *httptest.Server, body string) (*Response, int) {
	t.Helper()
	out, code, err := analyzeErr(ts, body)
	if err != nil {
		t.Fatal(err)
	}
	return out, code
}

// TestColdThenWarm is the tentpole acceptance path: the first submission
// computes and stores, the identical resubmission is answered from the
// store before tracing, with zero solver activity and the byte-identical
// report document.
func TestColdThenWarm(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	req := `{"bench":"md5","version":"pthreads","options":{"verify":true}}`

	cold, code := analyze(t, ts, req)
	if code != 200 {
		t.Fatalf("cold run status %d", code)
	}
	if cold.Store.Status != "miss" {
		t.Fatalf("cold store status %q, want miss", cold.Store.Status)
	}
	if cold.Diagnostics.SolverRuns == 0 {
		t.Fatal("cold run reported zero solver runs; diagnostics are not wired")
	}
	if cold.Diagnostics.Patterns == 0 {
		t.Fatal("cold run found no patterns")
	}

	warm, code := analyze(t, ts, req)
	if code != 200 {
		t.Fatalf("warm run status %d", code)
	}
	if warm.Store.Status != "hit" {
		t.Fatalf("warm store status %q, want hit", warm.Store.Status)
	}
	if warm.Diagnostics.SolverRuns != 0 {
		t.Fatalf("warm run reported %d solver runs, want 0", warm.Diagnostics.SolverRuns)
	}
	if warm.Diagnostics.CacheMisses != 0 || warm.Diagnostics.PrescreenChecks != 0 {
		t.Fatalf("warm run did analysis work: %+v", warm.Diagnostics)
	}
	if !bytes.Equal(cold.Report, warm.Report) {
		t.Fatal("warm report differs from the cold run's document")
	}
	if warm.Store.Key != cold.Store.Key || warm.Store.GraphFP != cold.Store.GraphFP {
		t.Fatalf("store identity mismatch: cold %+v warm %+v", cold.Store, warm.Store)
	}
	if warm.Diagnostics.Patterns != cold.Diagnostics.Patterns ||
		warm.Diagnostics.TracedNodes != cold.Diagnostics.TracedNodes {
		t.Fatalf("warm summary mismatch: cold %+v warm %+v", cold.Diagnostics, warm.Diagnostics)
	}
}

// TestOptionsChangeMissesStore asserts the options fingerprint separates
// entries: the same workload under different output-relevant options is a
// distinct store identity.
func TestOptionsChangeMissesStore(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	first, _ := analyze(t, ts, `{"bench":"md5","version":"seq"}`)
	second, _ := analyze(t, ts, `{"bench":"md5","version":"seq","options":{"verify":true}}`)
	if second.Store.Status != "miss" {
		t.Fatalf("changed options store status %q, want miss", second.Store.Status)
	}
	if first.Store.Key == second.Store.Key {
		t.Fatal("different options produced the same store key")
	}
}

// TestNoStoreBypass asserts no_store skips both lookup and write-back.
func TestNoStoreBypass(t *testing.T) {
	s, ts := newTestServer(t, Config{})
	resp, _ := analyze(t, ts, `{"bench":"md5","version":"seq","no_store":true}`)
	if resp.Store.Status != "bypass" {
		t.Fatalf("store status %q, want bypass", resp.Store.Status)
	}
	if n, _ := s.st.Len(); n != 0 {
		t.Fatalf("bypassed request wrote %d store entries", n)
	}
	again, _ := analyze(t, ts, `{"bench":"md5","version":"seq"}`)
	if again.Store.Status != "miss" {
		t.Fatalf("post-bypass status %q, want miss (nothing was stored)", again.Store.Status)
	}
}

// TestValidation exercises every 400 branch: the decode failures, both
// registry lookups, and each negative-option rejection in validate.
func TestValidation(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	for _, body := range []string{
		`{"bench":"nope","version":"seq"}`,
		`{"bench":"md5","version":"openmp"}`,
		`{"bench":"md5","version":"seq","options":{"budget_ms":-5}}`,
		`{"bench":"md5","version":"seq","options":{"solver_budget_ms":-1}}`,
		`{"bench":"md5","version":"seq","options":{"solver_steps":-1}}`,
		`{"bench":"md5","version":"seq","options":{"solver_restarts":-1}}`,
		`{"bench":"md5","version":"seq","options":{"max_view_groups":-1}}`,
		`{"bench":"md5","version":"seq","bogus_field":1}`,
		`{"bench":"md5","version":"seq","options":{"no_prescreen":true}}`, // removed option
		`not json`,
	} {
		if _, code := analyze(t, ts, body); code != 400 {
			t.Errorf("body %s: status %d, want 400", body, code)
		}
	}
	resp, err := http.Get(ts.URL + "/analyze")
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != 405 {
		t.Errorf("GET /analyze: status %d, want 405", resp.StatusCode)
	}
}

// blockingStore wedges Get until released, so the test controls exactly
// when the single worker can make progress — admission overflow becomes
// deterministic instead of racing real analyses.
type blockingStore struct {
	store.Store
	release chan struct{}
	once    sync.Once
}

func (b *blockingStore) Get(key string) (*store.Entry, bool, error) {
	<-b.release
	return b.Store.Get(key)
}

func (b *blockingStore) unblock() { b.once.Do(func() { close(b.release) }) }

// TestAdmissionControl fills one worker and a queue of one, then asserts
// the next submission is rejected 503 without waiting.
func TestAdmissionControl(t *testing.T) {
	blocker := &blockingStore{Store: store.NewMemory(), release: make(chan struct{})}
	_, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 1, Store: blocker})
	defer blocker.unblock()

	req := `{"bench":"md5","version":"seq"}`
	results := make(chan int, 2)
	for i := 0; i < 2; i++ {
		go func() {
			_, code, err := analyzeErr(ts, req)
			if err != nil {
				code = -1
			}
			results <- code
		}()
	}
	// Wait until the worker holds one job (wedged in Get) and the queue
	// holds the other; only then is the third submission a sure overflow.
	deadline := time.After(5 * time.Second)
	for {
		st, err := http.Get(ts.URL + "/healthz")
		if err != nil {
			t.Fatal(err)
		}
		var h struct {
			Queue    int `json:"queue"`
			InFlight int `json:"in_flight"`
		}
		json.NewDecoder(st.Body).Decode(&h)
		st.Body.Close()
		if h.InFlight == 1 && h.Queue == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("queue never filled: %+v", h)
		case <-time.After(10 * time.Millisecond):
		}
	}

	// The overflow 503 must carry Retry-After so well-behaved clients back
	// off instead of hammering a saturated daemon.
	or, err := http.Post(ts.URL+"/analyze", "application/json", strings.NewReader(req))
	if err != nil {
		t.Fatal(err)
	}
	or.Body.Close()
	if or.StatusCode != 503 {
		t.Fatalf("overflow submission: status %d, want 503", or.StatusCode)
	}
	if or.Header.Get("Retry-After") == "" {
		t.Fatal("queue-full 503 missing the Retry-After header")
	}

	blocker.unblock()
	for i := 0; i < 2; i++ {
		if code := <-results; code != 200 {
			t.Fatalf("queued submission %d: status %d, want 200", i, code)
		}
	}
}

// TestCancelledClientCounted covers the vanished-client path: a request
// whose client disconnects while queued is skipped by the worker and
// recorded in the cancelled counter, visible in /stats and /metrics.
func TestCancelledClientCounted(t *testing.T) {
	blocker := &blockingStore{Store: store.NewMemory(), release: make(chan struct{})}
	s, ts := newTestServer(t, Config{MaxInFlight: 1, QueueDepth: 2, Store: blocker})
	defer blocker.unblock()

	req := `{"bench":"md5","version":"seq"}`
	first := make(chan struct{})
	go func() {
		defer close(first)
		analyzeErr(ts, req)
	}()

	// Wait for the first job to wedge in the worker.
	deadline := time.After(5 * time.Second)
	for s.inflight.Load() != 1 {
		select {
		case <-deadline:
			t.Fatal("first job never reached the worker")
		case <-time.After(10 * time.Millisecond):
		}
	}

	// Park a second job behind it whose client is already gone: submit
	// answers 499 immediately, and the worker — still wedged on the first
	// job — is guaranteed to dequeue it after the cancellation, which is
	// the path the counter exists for. (Driving this through a real HTTP
	// disconnect races the server noticing the closed connection against
	// the worker's dequeue.)
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if _, herr := s.submit(ctx, &Request{Bench: "md5", Version: "seq"}); herr == nil || herr.code != 499 {
		t.Fatalf("submit with a gone client: %+v, want 499", herr)
	}

	blocker.unblock()
	<-first

	// The worker drains the queued job, notices the client is gone, and
	// bumps the counter.
	deadline = time.After(5 * time.Second)
	for {
		sr, err := http.Get(ts.URL + "/stats")
		if err != nil {
			t.Fatal(err)
		}
		var stats statsJSON
		json.NewDecoder(sr.Body).Decode(&stats)
		sr.Body.Close()
		if stats.Cancelled == 1 {
			break
		}
		select {
		case <-deadline:
			t.Fatalf("cancelled never counted: %+v", stats)
		case <-time.After(10 * time.Millisecond):
		}
	}
	mr, err := http.Get(ts.URL + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	var sb strings.Builder
	buf := make([]byte, 64<<10)
	for {
		n, rerr := mr.Body.Read(buf)
		sb.Write(buf[:n])
		if rerr != nil {
			break
		}
	}
	mr.Body.Close()
	if !strings.Contains(sb.String(), "discovery_server_requests_cancelled_total") {
		t.Error("metrics missing the cancelled counter")
	}
}

// TestPhaseTree asserts the per-request span tree renders on demand and
// stays absent otherwise.
func TestPhaseTree(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	with, _ := analyze(t, ts, `{"bench":"md5","version":"seq","phase_tree":true,"no_store":true}`)
	if !strings.Contains(with.PhaseTree, "request") || !strings.Contains(with.PhaseTree, "find") {
		t.Fatalf("phase tree missing spans:\n%s", with.PhaseTree)
	}
	without, _ := analyze(t, ts, `{"bench":"md5","version":"seq","no_store":true}`)
	if without.PhaseTree != "" {
		t.Fatal("phase tree present without phase_tree:true")
	}
}

// TestEndpoints smoke-checks the read-only surface.
func TestEndpoints(t *testing.T) {
	_, ts := newTestServer(t, Config{})
	analyze(t, ts, `{"bench":"md5","version":"seq"}`)

	get := func(path string) string {
		resp, err := http.Get(ts.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != 200 {
			t.Fatalf("GET %s: status %d", path, resp.StatusCode)
		}
		var sb strings.Builder
		buf := make([]byte, 64<<10)
		for {
			n, err := resp.Body.Read(buf)
			sb.Write(buf[:n])
			if err != nil {
				break
			}
		}
		return sb.String()
	}

	if body := get("/healthz"); !strings.Contains(body, `"status": "ok"`) ||
		!strings.Contains(body, `"sched_workers"`) {
		t.Errorf("healthz: %s", body)
	}
	var stats statsJSON
	if err := json.Unmarshal([]byte(get("/stats")), &stats); err != nil {
		t.Fatal(err)
	}
	if stats.Served != 1 || stats.StoreLen != 2 || stats.Cache.Generations != 1 {
		t.Errorf("stats after one analysis: %+v", stats)
	}
	// One analysis ran cold, so its solve tasks flowed through the shared
	// pool: the sched block must show a sized, drained, non-idle pool.
	if stats.Sched.Workers <= 0 || stats.Sched.Completed == 0 ||
		stats.Sched.Completed != stats.Sched.Submitted ||
		stats.Sched.Owners != 0 || stats.Sched.Queued != 0 {
		t.Errorf("sched stats after one analysis: %+v", stats.Sched)
	}
	if body := get("/metrics"); !strings.Contains(body, "discovery_server_requests_total") ||
		!strings.Contains(body, "discovery_solver_runs_total") ||
		!strings.Contains(body, "discovery_sched_workers") ||
		!strings.Contains(body, "discovery_sched_tasks_total") {
		t.Errorf("metrics missing families:\n%.500s", body)
	}
	if body := get("/benchmarks"); !strings.Contains(body, "md5") || !strings.Contains(body, "streamcluster") {
		t.Errorf("benchmarks: %.300s", body)
	}
}
