package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"net"
	"net/http"
	"os"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"discovery/internal/obs"
	"discovery/internal/server"
	"discovery/internal/store"
)

// daemon-mix drives an in-process analysis daemon over loopback HTTP: a
// disk store under the server's default resilience stack, the shared
// ViewCache and the shared solve pool, with requests for the 16 suite
// programs in four classes. Every pass holds the same 64 requests — one of
// each class for each program — in an order the seed shuffles, served by a
// closed loop of at most two clients. The equal counts make every pass
// cover each serving path once per program; they do not model any
// traffic. Fixing each pass's contents keeps pass times comparable: a pass
// drawn at random would vary with how many expensive programs it computes.
type reqClass int

const (
	classHit  reqClass = iota // plain resubmission: a store read hit
	classMiss                 // unique budget_ms: misses the store, computes on the warm ViewCache, writes back
	classWarm                 // no_store: computes on the warm ViewCache
	classCold                 // no_store + no_cache: a cold compute
)

var (
	classNames = []string{"hit", "miss", "warm", "cold"}
	// wantStatus is the store status each class must report.
	wantStatus = []string{"hit", "miss", "bypass", "bypass"}
)

const (
	daemonInFlight = 2
	daemonSched    = 2
)

type daemonReq struct {
	prog     *program
	class    reqClass
	budgetMS int64
}

type reply struct {
	req     daemonReq
	latency time.Duration
	status  int
	resp    server.Response
	err     error
}

func runDaemon(cfg config) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	progs := suitePrograms()
	golden, err := loadGolden(cfg.root, progs)
	if err != nil {
		return nil, err
	}
	chk := &daemonCheck{golden: map[*program]string{}, seen: map[string]bool{}}
	for p, g := range golden {
		if chk.golden[p], err = canonicalReport([]byte(g.json)); err != nil {
			return nil, fmt.Errorf("golden report of %s: %w", p.name(), err)
		}
	}
	clients := runtime.GOMAXPROCS(0)
	if clients > 2 {
		clients = 2
	}

	// Set-up: start the daemon on a fresh store and warm it with one plain
	// request per program, which computes and stores each result.
	m := newMeasurement()
	var d *daemon
	for m.moreSetups(cfg) {
		if d != nil {
			d.close()
		}
		start := time.Now()
		if d, err = startDaemon(clients); err != nil {
			return nil, err
		}
		for _, p := range progs {
			chk.check(d.post(daemonReq{prog: p, class: classHit}, false), "miss", o)
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
	}
	defer d.close()

	progVM, progMS := map[*program]float64{}, map[*program]float64{}
	if cfg.traced {
		// The uninstrumented run and the build of each program, which the
		// daemon does not expose, are timed here on the same programs.
		for _, p := range progs {
			start := time.Now()
			p.bench.Build(p.version, p.params)
			progMS[p] = ms(time.Since(start))
			if progVM[p], err = execMS(p); err != nil {
				return nil, err
			}
		}
	}

	rng := rand.New(rand.NewSource(cfg.seed))
	nextBudget := int64(30000)
	perClass := make([][]float64, len(classNames))
	var tl daemonLayers
	start := time.Now()
	for pass := 0; pass < minPasses(cfg) || time.Since(start).Seconds() < cfg.seconds; pass++ {
		var reqs []daemonReq
		for _, p := range progs {
			for c := range classNames {
				r := daemonReq{prog: p, class: reqClass(c)}
				if r.class == classMiss {
					r.budgetMS = nextBudget
					nextBudget++
				}
				reqs = append(reqs, r)
			}
		}
		rng.Shuffle(len(reqs), func(i, j int) { reqs[i], reqs[j] = reqs[j], reqs[i] })

		traced := cfg.traced && pass%2 == 1
		var before daemonCounters
		if traced {
			if before, err = d.counters(); err != nil {
				return nil, err
			}
		}
		replies, wall := d.pass(reqs, clients, traced)
		var (
			ran  []*program
			lats []float64
		)
		for _, r := range replies {
			chk.check(r, wantStatus[r.req.class], o)
			ran, lats = append(ran, r.req.prog), append(lats, ms(r.latency))
		}
		m.pass(wall.Seconds(), ran, lats, traced)
		if !traced {
			for _, r := range replies {
				perClass[r.req.class] = append(perClass[r.req.class], ms(r.latency))
			}
			continue
		}
		after, err := d.counters()
		if err != nil {
			return nil, err
		}
		tl.add(replies, before, after)
		for _, r := range replies {
			if r.resp.PhaseTree == "" {
				continue
			}
			s, err := daemonSample(r)
			if err != nil {
				return nil, err
			}
			s["mir.build_ms"] = progMS[r.req.prog]
			s["vm.exec_ms"] = progVM[r.req.prog]
			m.samples = append(m.samples, s)
		}
	}
	for c, lats := range perClass {
		fmt.Fprintf(progress, "pipebench: %-4s requests %5d  p50 %8.3f ms  p99 %8.3f ms\n",
			classNames[c], len(lats), median(lats), percentile(lats, 99))
	}
	m.values(o, cfg.traced, libraryOnly)
	if cfg.traced {
		tl.values(o.values, len(m.samples))
	}
	return o, nil
}

// daemon is the in-process server, its store and its loopback listener.
type daemon struct {
	dir    string
	disk   *store.Disk
	ts     *timedStore
	srv    *server.Server
	hs     *http.Server
	served chan error
	url    string
	client *http.Client
}

func startDaemon(clients int) (*daemon, error) {
	dir, err := os.MkdirTemp("", "pipebench-store-")
	if err != nil {
		return nil, err
	}
	disk, err := store.NewDisk(dir)
	if err != nil {
		os.RemoveAll(dir)
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		disk.Close()
		os.RemoveAll(dir)
		return nil, err
	}
	d := &daemon{dir: dir, disk: disk, ts: &timedStore{inner: disk}, served: make(chan error, 1)}
	d.srv = server.New(server.Config{MaxInFlight: daemonInFlight, SchedWorkers: daemonSched, Store: d.ts})
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.served <- d.hs.Serve(ln) }()
	d.url = "http://" + ln.Addr().String()
	d.client = &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: clients, MaxConnsPerHost: clients}}
	return d, nil
}

// close stops the listener, drains the server and removes the store.
func (d *daemon) close() {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := d.hs.Shutdown(ctx); err != nil {
		fmt.Fprintf(os.Stderr, "pipebench: stopping the daemon's listener: %v\n", err)
	}
	if err := <-d.served; !errors.Is(err, http.ErrServerClosed) {
		fmt.Fprintf(os.Stderr, "pipebench: serving: %v\n", err)
	}
	d.client.CloseIdleConnections()
	d.srv.Close()
	d.disk.Close()
	os.RemoveAll(d.dir)
}

// pass serves the requests with a closed loop of clients and returns the
// replies in request order and the pass's wall time.
func (d *daemon) pass(reqs []daemonReq, clients int, phaseTree bool) ([]reply, time.Duration) {
	replies := make([]reply, len(reqs))
	var next atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for c := 0; c < clients; c++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := int(next.Add(1)) - 1; i < len(reqs); i = int(next.Add(1)) - 1 {
				replies[i] = d.post(reqs[i], phaseTree)
			}
		}()
	}
	wg.Wait()
	return replies, time.Since(start)
}

// post sends one POST /analyze; the latency runs until the response body
// has been read.
func (d *daemon) post(r daemonReq, phaseTree bool) reply {
	req := server.Request{
		Bench:     r.prog.bench.Name,
		Version:   string(r.prog.version),
		Options:   server.RequestOptions{BudgetMS: r.budgetMS, NoCache: r.class == classCold},
		NoStore:   r.class == classWarm || r.class == classCold,
		PhaseTree: phaseTree,
	}
	body, err := json.Marshal(req)
	if err != nil {
		return reply{req: r, err: err}
	}
	start := time.Now()
	resp, err := d.client.Post(d.url+"/analyze", "application/json", bytes.NewReader(body))
	if err != nil {
		return reply{req: r, err: err}
	}
	data, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	out := reply{req: r, latency: time.Since(start), status: resp.StatusCode, err: err}
	if err == nil && resp.StatusCode == http.StatusOK {
		out.err = json.Unmarshal(data, &out.resp)
	}
	return out
}

// daemonCounters are the cumulative daemon counters a traced pass reads
// before and after itself.
type daemonCounters struct {
	stats struct {
		Rejected int64 `json:"rejected"`
		Sched    struct {
			Steals  int64 `json:"steals"`
			Helped  int64 `json:"helped"`
			Expired int64 `json:"expired"`
		} `json:"sched"`
	}
	solveS, queueS, requestS float64
	store                    storeTally
}

func (d *daemon) counters() (daemonCounters, error) {
	var c daemonCounters
	resp, err := d.client.Get(d.url + "/stats")
	if err != nil {
		return c, err
	}
	defer resp.Body.Close()
	if err := json.NewDecoder(resp.Body).Decode(&c.stats); err != nil {
		return c, fmt.Errorf("decoding /stats: %w", err)
	}
	h := d.srv.Metrics().Histograms()
	c.solveS = h[obs.MetricSolveSeconds].Sum
	c.queueS = h[obs.MetricServerQueueSeconds].Sum
	c.requestS = h[obs.MetricServerRequestSeconds].Sum
	c.store = d.ts.tally()
	return c, nil
}

// daemonLayers accumulates the daemon-side layer counters over the traced
// passes.
type daemonLayers struct {
	requests                        int
	clientS, solveS, queueS, procS  float64
	store                           storeTally
	rejected, steals, helped, expir int64
}

func (t *daemonLayers) add(replies []reply, before, after daemonCounters) {
	t.requests += len(replies)
	for _, r := range replies {
		t.clientS += r.latency.Seconds()
	}
	t.solveS += after.solveS - before.solveS
	t.queueS += after.queueS - before.queueS
	t.procS += after.requestS - before.requestS
	t.store.gets += after.store.gets - before.store.gets
	t.store.puts += after.store.puts - before.store.puts
	t.store.found += after.store.found - before.store.found
	t.store.errors += after.store.errors - before.store.errors
	t.store.getS += after.store.getS - before.store.getS
	t.store.putS += after.store.putS - before.store.putS
	t.rejected += after.stats.Rejected - before.stats.Rejected
	t.steals += after.stats.Sched.Steals - before.stats.Sched.Steals
	t.helped += after.stats.Sched.Helped - before.stats.Sched.Helped
	t.expir += after.stats.Sched.Expired - before.stats.Sched.Expired
}

// values sets the daemon's store, server and sched metrics (per request,
// or as shares of the clients' request time) and the solve time per
// computed request.
func (t *daemonLayers) values(v map[string]float64, computed int) {
	n := float64(t.requests)
	v["cp.solve_ms"] = ratio(t.solveS*1000, float64(computed))
	v["store.gets"] = ratio(float64(t.store.gets), n)
	v["store.puts"] = ratio(float64(t.store.puts), n)
	v["store.hit_frac"] = ratio(float64(t.store.found), float64(t.store.gets))
	v["store.errors"] = float64(t.store.errors)
	v["store.get_frac"] = ratio(t.store.getS, t.clientS)
	v["store.put_frac"] = ratio(t.store.putS, t.clientS)
	v["server.queue_frac"] = ratio(t.queueS, t.clientS)
	v["server.http_frac"] = ratio(t.clientS-t.queueS-t.procS, t.clientS)
	v["server.rejected"] = float64(t.rejected)
	v["sched.steals"] = ratio(float64(t.steals), n)
	v["sched.helped"] = ratio(float64(t.helped), n)
	v["sched.expired"] = ratio(float64(t.expir), n)
}

// daemonSample reads one computed request's layers from its response: the
// phase tree's trace and find spans, the diagnostics, and the counts in
// the report.
func daemonSample(r reply) (layerSample, error) {
	root, err := parsePhaseTree(r.resp.PhaseTree)
	if err != nil {
		return nil, fmt.Errorf("phase tree of %s: %w", r.req.prog.name(), err)
	}
	var doc struct {
		SimplifiedNodes int `json:"simplified_nodes"`
		Iterations      int `json:"iterations"`
		PoolSize        int `json:"pool_size"`
		Matches         int `json:"matches"`
		Diagnostics     struct {
			Solver map[string]struct {
				Runs         int   `json:"runs"`
				Timeouts     int   `json:"timeouts"`
				Nodes        int64 `json:"nodes"`
				Propagations int64 `json:"propagations"`
				Solutions    int64 `json:"solutions"`
			} `json:"solver"`
		} `json:"diagnostics"`
	}
	if err := json.Unmarshal(r.resp.Report, &doc); err != nil {
		return nil, fmt.Errorf("report of %s: %w", r.req.prog.name(), err)
	}
	diag := r.resp.Diagnostics
	s := layerSample{
		"trace.nodes":               float64(diag.TracedNodes),
		"core.simplified_nodes":     float64(doc.SimplifiedNodes),
		"core.pool_subs":            float64(doc.PoolSize),
		"core.iterations":           float64(doc.Iterations),
		"core.matches":              float64(doc.Matches),
		"patterns.prescreen_checks": float64(diag.PrescreenChecks),
		"report.bytes":              float64(len(r.resp.Report)),
		rawCacheHits:                float64(diag.CacheHits),
		rawCacheMisses:              float64(diag.CacheMisses),
		rawPrescreenSkips:           float64(diag.PrescreenSkips),
		"cp.solves":                 0,
		"cp.nodes":                  0,
		"cp.propagations":           0,
		"cp.timeouts":               0,
		rawSolutions:                0,
	}
	if r.req.class == classCold {
		// With the cache off the finder books no cache hits or misses, so
		// the request's decision count is unknown; it is left out of the
		// ratios over decisions.
		s[rawCacheHits], s[rawCacheMisses], s[rawPrescreenSkips] = 0, 0, 0
	}
	for _, ks := range doc.Diagnostics.Solver {
		s["cp.solves"] += float64(ks.Runs)
		s["cp.nodes"] += float64(ks.Nodes)
		s["cp.propagations"] += float64(ks.Propagations)
		s["cp.timeouts"] += float64(ks.Timeouts)
		s[rawSolutions] += float64(ks.Solutions)
	}
	for _, k := range root.kids {
		switch k.name {
		case "trace":
			s["trace.run_ms"] += k.wall
		case "find":
			s["core.find_ms"] += k.wall
			s.addFindSplit(k)
		}
	}
	return s, nil
}

// treeIndents are the indentation units of a rendered phase tree.
var treeIndents = []string{"├─ ", "└─ ", "│  ", "   "}

// parsePhaseTree reads the phase tree a response carries, as rendered by
// obs.RenderTree: one span per line, "name  wall ..." behind box-drawing
// indentation three columns per level. A folded "… N more span(s)" line
// becomes one child carrying the folded spans' summed wall time.
func parsePhaseTree(text string) (*span, error) {
	var stack []*span
	for _, line := range strings.Split(strings.TrimRight(text, "\n"), "\n") {
		depth := 0
	indent:
		for {
			for _, in := range treeIndents {
				if strings.HasPrefix(line, in) {
					line = line[len(in):]
					depth++
					continue indent
				}
			}
			break
		}
		f := strings.Fields(line)
		wallAt := 1
		switch {
		case len(f) > 0 && f[0] == "…":
			wallAt = 4
		case len(f) > 1 && f[1] == "!":
			wallAt = 2
		}
		if len(f) <= wallAt || depth > len(stack) || (depth == 0 && len(stack) > 0) {
			return nil, fmt.Errorf("unexpected line %q", line)
		}
		wall, err := time.ParseDuration(f[wallAt])
		if err != nil {
			return nil, err
		}
		s := &span{name: f[0], wall: ms(wall)}
		if depth > 0 {
			parent := stack[depth-1]
			parent.kids = append(parent.kids, s)
		}
		stack = append(stack[:depth], s)
	}
	if len(stack) == 0 {
		return nil, errors.New("empty phase tree")
	}
	return stack[0], nil
}

// storeTally is the timing decorator's cumulative counts.
type storeTally struct {
	gets, puts, found, errors int64
	getS, putS                float64
}

// timedStore is a store.Store decorator that times every call into the
// backend; the server wraps it in its default resilience stack.
type timedStore struct {
	inner store.Store
	mu    sync.Mutex
	t     storeTally
}

func (s *timedStore) Get(key string) (*store.Entry, bool, error) {
	start := time.Now()
	e, ok, err := s.inner.Get(key)
	d := time.Since(start).Seconds()
	s.mu.Lock()
	s.t.gets++
	s.t.getS += d
	if ok {
		s.t.found++
	}
	if err != nil {
		s.t.errors++
	}
	s.mu.Unlock()
	return e, ok, err
}

func (s *timedStore) Put(e *store.Entry) error {
	start := time.Now()
	err := s.inner.Put(e)
	d := time.Since(start).Seconds()
	s.mu.Lock()
	s.t.puts++
	s.t.putS += d
	if err != nil {
		s.t.errors++
	}
	s.mu.Unlock()
	return err
}

func (s *timedStore) Len() (int, error) { return s.inner.Len() }

func (s *timedStore) Close() error { return s.inner.Close() }

func (s *timedStore) tally() storeTally {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.t
}

// daemonCheck checks every reply: a 200, not degraded, the store status
// its class implies, zero solver runs on a store hit, and a report equal
// to the program's golden report up to the effort accounting.
type daemonCheck struct {
	golden map[*program]string
	seen   map[string]bool // raw report bytes already found correct
}

func (c *daemonCheck) check(r reply, want string, o *outcome) {
	o.attempted++
	name := r.req.prog.name()
	switch {
	case r.err != nil:
		o.failed++
		o.problem("%s (%s): %v", name, classNames[r.req.class], r.err)
		return
	case r.status != http.StatusOK:
		o.failed++
		o.problem("%s (%s): HTTP %d", name, classNames[r.req.class], r.status)
		return
	case r.resp.Diagnostics.Degraded || r.resp.Diagnostics.Interrupted:
		o.failed++
		o.problem("%s (%s): degraded result", name, classNames[r.req.class])
	}
	if r.resp.Store.Status != want {
		o.problem("%s (%s): store status %q, want %q", name, classNames[r.req.class], r.resp.Store.Status, want)
	}
	if r.resp.Store.Status == "hit" && r.resp.Diagnostics.SolverRuns != 0 {
		o.problem("%s: store hit ran %d solves", name, r.resp.Diagnostics.SolverRuns)
	}
	// Store hits replay one stored report per program verbatim, so their
	// verdicts are memoized; computed reports differ in elapsed_ms.
	hit := r.resp.Store.Status == "hit"
	raw := string(r.resp.Report)
	if hit && c.seen[raw] {
		return
	}
	got, err := canonicalReport(r.resp.Report)
	if err != nil || got != c.golden[r.req.prog] {
		o.problem("%s (%s): report differs from the golden report", name, classNames[r.req.class])
		return
	}
	if hit {
		c.seen[raw] = true
	}
}
