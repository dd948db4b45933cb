package server

import (
	"bytes"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"testing"

	"discovery/internal/fault"
	"discovery/internal/store"
)

// The chaos harness drives the real serving stack — admission queue,
// workers, store fallback, phase hooks — through scripted fault plans
// (testdata/faultplans) and checks the tentpole invariant on every
// response: its answer is byte-identical to the fault-free run's, or it
// is explicitly degraded (Degraded/Interrupted/BrownoutMS in
// diagnostics), or it is a clean 4xx/5xx. Never a silently wrong 200,
// and never a daemon death.
//
// "Answer" is the report minus its diagnostics block: the cost counters
// in there (solver elapsed, cache hits) legitimately vary with cache
// temperature and wall clock — a recompute after a torn write is correct
// even though it hit the warm ViewCache instead of re-solving. Everything
// else — patterns, matches, node counts, iterations — is compared byte
// for byte.

// chaosAnswer strips the diagnostics block out of a report document so
// invariant checks compare the answer, not the cost accounting.
func chaosAnswer(t *testing.T, doc []byte) []byte {
	t.Helper()
	var m map[string]json.RawMessage
	if err := json.Unmarshal(doc, &m); err != nil {
		t.Fatalf("report is not a JSON object: %v", err)
	}
	delete(m, "diagnostics")
	out, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	return out
}

// chaosRequests is the submission sequence every plan replays. Repeats are
// deliberate: they exercise the store hit path under faults.
var chaosRequests = []string{
	`{"bench":"md5","version":"seq"}`,
	`{"bench":"md5","version":"seq"}`,
	`{"bench":"md5","version":"pthreads"}`,
	`{"bench":"md5","version":"pthreads"}`,
}

// chaosBaseline computes the fault-free report for each distinct request
// body. Reports are deterministic (the whole store-memoization design
// depends on that), so these bytes are the ground truth a faulted run's
// 200s are compared against.
func chaosBaseline(t *testing.T) map[string][]byte {
	t.Helper()
	_, ts := newTestServer(t, Config{})
	base := map[string][]byte{}
	for _, req := range chaosRequests {
		if _, seen := base[req]; seen {
			continue
		}
		resp, code := analyze(t, ts, req)
		if code != 200 {
			t.Fatalf("baseline %s: status %d", req, code)
		}
		if resp.Diagnostics.Degraded || resp.Diagnostics.Interrupted {
			t.Fatalf("baseline %s degraded; chaos comparisons need a clean run", req)
		}
		base[req] = chaosAnswer(t, resp.Report)
	}
	return base
}

// checkChaosInvariant classifies one faulted response: correct, honest, or
// a clean error — anything else is the failure mode the harness exists to
// catch.
func checkChaosInvariant(t *testing.T, req string, resp *Response, code int, baseline []byte) {
	t.Helper()
	switch {
	case code == 200:
		if bytes.Equal(chaosAnswer(t, resp.Report), baseline) {
			return // same answer as the fault-free run
		}
		d := resp.Diagnostics
		if d.Degraded || d.Interrupted || d.BrownoutMS > 0 {
			return // explicitly degraded
		}
		t.Errorf("%s: silently wrong 200 — answer differs from fault-free run with no degradation marker\ndiag: %+v", req, d)
	case code == 499 || code == 503 || (code >= 500 && code < 600):
		return // clean shed/error; the client knows to retry
	default:
		t.Errorf("%s: unexpected status %d", req, code)
	}
}

// TestChaosPlans replays the request sequence under every plan in the
// corpus and checks the invariant on each response, plus liveness after.
func TestChaosPlans(t *testing.T) {
	baseline := chaosBaseline(t)
	plans, err := filepath.Glob("testdata/faultplans/*.json")
	if err != nil || len(plans) == 0 {
		t.Fatalf("no fault plans found: %v", err)
	}
	for _, path := range plans {
		t.Run(filepath.Base(path), func(t *testing.T) {
			plan, err := fault.Load(path)
			if err != nil {
				t.Fatal(err)
			}
			disk, err := store.NewDisk(t.TempDir())
			if err != nil {
				t.Fatal(err)
			}
			_, ts := newTestServer(t, Config{
				Store:     plan.Store(disk),
				PhaseHook: plan.PhaseHook(),
			})
			for _, req := range chaosRequests {
				resp, code, err := analyzeErr(ts, req)
				if err != nil {
					t.Fatalf("%s: transport error: %v", req, err)
				}
				checkChaosInvariant(t, req, resp, code, baseline[req])
			}
			// The daemon survived its plan: still serving, still healthy
			// enough to say so.
			hr, err := http.Get(ts.URL + "/healthz")
			if err != nil {
				t.Fatalf("daemon dead after plan: %v", err)
			}
			hr.Body.Close()
			if hr.StatusCode != 200 {
				t.Fatalf("healthz %d after plan", hr.StatusCode)
			}
		})
	}
}

// TestChaosStoreOutageServesWarmFromFallback is the degraded-serving
// acceptance path: with the primary store persistently failing, the
// daemon keeps answering — the second identical request is served warm
// from the memory fallback with zero solver runs.
func TestChaosStoreOutageServesWarmFromFallback(t *testing.T) {
	baseline := chaosBaseline(t)
	plan, err := fault.Load("testdata/faultplans/store-outage.json")
	if err != nil {
		t.Fatal(err)
	}
	disk, err := store.NewDisk(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Store:     plan.Store(disk),
		PhaseHook: plan.PhaseHook(),
	})

	req := `{"bench":"md5","version":"seq"}`
	cold, code := analyze(t, ts, req)
	if code != 200 || cold.Store.Status != "miss" {
		t.Fatalf("cold run under store outage: status %d store %q", code, cold.Store.Status)
	}
	if cold.Diagnostics.SolverRuns == 0 {
		t.Fatal("cold run did no solving")
	}

	warm, code := analyze(t, ts, req)
	if code != 200 {
		t.Fatalf("warm run under store outage: status %d", code)
	}
	if warm.Store.Status != "hit" || warm.Diagnostics.SolverRuns != 0 {
		t.Fatalf("warm run not served from the fallback: store %q, solver_runs %d",
			warm.Store.Status, warm.Diagnostics.SolverRuns)
	}
	if !bytes.Equal(chaosAnswer(t, warm.Report), baseline[req]) {
		t.Fatal("fallback-served answer differs from the fault-free run")
	}

	if !s.st.Degraded() || s.st.DegradedOps() == 0 {
		t.Fatalf("fallback accounting after persistent failures: degraded %t degraded ops %d",
			s.st.Degraded(), s.st.DegradedOps())
	}

	// /healthz reports the rung: still serving, but degraded.
	hr, err := http.Get(ts.URL + "/healthz")
	if err != nil {
		t.Fatal(err)
	}
	var health struct {
		Status        string `json:"status"`
		StoreDegraded bool   `json:"store_degraded"`
	}
	json.NewDecoder(hr.Body).Decode(&health)
	hr.Body.Close()
	if health.Status != "degraded" || !health.StoreDegraded {
		t.Fatalf("healthz under outage: %+v", health)
	}
}

// TestChaosTornPutRestartNeverServesCorrupt is the crash-safety acceptance
// path: a torn write (crash between write and fsync) followed by a restart
// must never surface a corrupt entry — the recovered store quarantines it
// and the daemon recomputes the correct answer.
func TestChaosTornPutRestartNeverServesCorrupt(t *testing.T) {
	baseline := chaosBaseline(t)
	dir := t.TempDir()
	req := `{"bench":"md5","version":"seq"}`

	// Incarnation one: every put lands torn while claiming success.
	plan, err := fault.Load("testdata/faultplans/torn-writes.json")
	if err != nil {
		t.Fatal(err)
	}
	disk1, err := store.NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	s1 := New(Config{Store: plan.Store(disk1)})
	ts1 := httptest.NewServer(s1.Handler())
	first, code, err := analyzeErr(ts1, req)
	if err != nil || code != 200 {
		t.Fatalf("first incarnation: %v status %d", err, code)
	}
	if !bytes.Equal(chaosAnswer(t, first.Report), baseline[req]) {
		t.Fatal("first incarnation answer differs from fault-free run")
	}
	ts1.Close()
	s1.Close()
	disk1.Close()

	// Incarnation two: no faults. Opening the store runs the recovery
	// scan, which must quarantine the torn entries rather than fail.
	disk2, err := store.NewDisk(dir)
	if err != nil {
		t.Fatalf("reopening store over torn entries: %v", err)
	}
	if disk2.Quarantined() == 0 {
		t.Fatal("recovery scan quarantined nothing; the torn writes vanished")
	}
	s2 := New(Config{Store: disk2})
	ts2 := httptest.NewServer(s2.Handler())
	defer func() { ts2.Close(); s2.Close(); disk2.Close() }()

	again, code, err := analyzeErr(ts2, req)
	if err != nil || code != 200 {
		t.Fatalf("post-restart request: %v status %d", err, code)
	}
	// Never a hit off a torn entry: the store treats it as a miss and the
	// daemon recomputes the exact fault-free answer.
	if again.Store.Status != "miss" {
		t.Fatalf("post-restart store status %q, want miss (torn entry must not serve)", again.Store.Status)
	}
	if again.Diagnostics.SolverRuns == 0 {
		t.Fatal("post-restart request did not recompute")
	}
	if !bytes.Equal(chaosAnswer(t, again.Report), baseline[req]) {
		t.Fatal("post-restart answer differs from the fault-free run")
	}

	// This incarnation's write is durable: one more submission is a clean
	// pre-trace hit.
	warm, code, err := analyzeErr(ts2, req)
	if err != nil || code != 200 || warm.Store.Status != "hit" {
		t.Fatalf("healed store not serving warm: %v status %d store %q", err, code, warm.Store.Status)
	}
}

// TestChaosPhasePanicIsContainedOrClean pins the two panic outcomes: a
// finder-phase panic degrades the result (PR-3 containment), a panic
// outside the guarded phases costs a clean 500 — never a dead worker.
func TestChaosPhasePanicIsContainedOrClean(t *testing.T) {
	plan, err := fault.Load("testdata/faultplans/phase-panics.json")
	if err != nil {
		t.Fatal(err)
	}
	s, ts := newTestServer(t, Config{
		Store:     store.NewMemory(),
		PhaseHook: plan.PhaseHook(),
	})

	// Request 1: phase.match index 0 panics inside the finder — contained,
	// honest 200.
	resp, code := analyze(t, ts, `{"bench":"md5","version":"seq","no_store":true}`)
	if code != 200 || !resp.Diagnostics.Degraded {
		t.Fatalf("contained phase panic: status %d degraded %t", code, resp.Diagnostics.Degraded)
	}

	// Request 2: phase.trace index 1 panics outside the finder's guards —
	// the worker's recover boundary turns it into a clean 500.
	_, code = analyze(t, ts, `{"bench":"md5","version":"pthreads","no_store":true}`)
	if code != 500 {
		t.Fatalf("out-of-finder panic: status %d, want 500", code)
	}

	// Request 3: no rules left — the same worker pool serves normally.
	resp, code = analyze(t, ts, `{"bench":"md5","version":"pthreads","no_store":true}`)
	if code != 200 || resp.Diagnostics.Degraded {
		t.Fatalf("post-panic request: status %d degraded %t", code, resp.Diagnostics.Degraded)
	}
	if got := s.served.Load(); got != 2 {
		t.Fatalf("served %d, want 2", got)
	}
}
