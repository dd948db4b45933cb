package main

import (
	"fmt"
	"math/rand"
	"runtime/metrics"
	"time"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/obs"
	"discovery/internal/report"
	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// program is one analysis input: a Starbench benchmark version, its input
// parameters, and the finder options the workload analyses it with.
type program struct {
	bench   *starbench.Benchmark
	version starbench.Version
	params  starbench.Params
	opts    core.Options
}

func (p *program) name() string { return p.bench.Name + "/" + string(p.version) }

// analysis is one program analysed to a report through the library calls
// the discovery CLI makes.
type analysis struct {
	prog    *program
	built   *starbench.Built
	traced  *ddg.Graph
	res     *core.Result
	text    string
	json    []byte
	latency time.Duration
	layers  layerSample // traced runs only
}

// close releases the spill files of the traced and simplified graphs.
func (a *analysis) close() {
	a.res.Graph.CloseSpill()
	a.traced.CloseSpill()
}

// analyze runs Build → trace.Run → core.Find → report.Text + report.JSON.
// With withLayers it also records the per-layer sample: allocation and
// GC deltas around the trace and find calls, the counts the Result
// carries, and the phase split from a span collector attached to Find.
func analyze(p *program, withLayers bool) (*analysis, error) {
	opts := p.opts
	var col *obs.Collector
	var m0, m1 memPoint
	if withLayers {
		col = obs.NewCollector()
		opts.Obs = col
		m0 = readMem()
	}
	start := time.Now()
	built := p.bench.Build(p.version, p.params)
	builtAt := time.Now()
	tr, err := trace.Run(built.Prog)
	if err != nil {
		return nil, fmt.Errorf("tracing %s: %w", p.name(), err)
	}
	tracedAt := time.Now()
	if withLayers {
		m1 = readMem()
	}
	// Like the CLI's -trace-memory-budget: the traced graph spills before
	// the finder reads it, and the finder spills the simplified graph.
	if opts.SpillBudget > 0 {
		if _, err := tr.Graph.MaybeSpill(ddg.SpillConfig{Dir: opts.SpillDir, Budget: opts.SpillBudget}); err != nil {
			return nil, fmt.Errorf("spilling %s: %w", p.name(), err)
		}
	}
	findStart := time.Now()
	res := core.Find(tr.Graph, opts)
	foundAt := time.Now()
	if d := tr.Diagnostic(); d != nil {
		res.Failures = append(res.Failures, d)
	}
	text := report.Text(built.Prog, res)
	js, err := report.JSON(res)
	a := &analysis{prog: p, built: built, traced: tr.Graph, res: res, text: text, json: js, latency: time.Since(start)}
	if err != nil {
		a.close()
		return nil, fmt.Errorf("rendering %s: %w", p.name(), err)
	}
	if withLayers {
		m2 := readMem()
		ls := layerSample{
			"mir.build_ms":        ms(builtAt.Sub(start)),
			"trace.run_ms":        ms(tracedAt.Sub(builtAt)),
			"core.find_ms":        ms(foundAt.Sub(findStart)),
			"trace.alloc_mb":      mb(m1.alloc - m0.alloc),
			"trace.gc_cycles":     float64(m1.gcs - m0.gcs),
			"core.find_alloc_mb":  mb(m2.alloc - m1.alloc),
			"core.find_gc_cycles": float64(m2.gcs - m1.gcs),
			"ddg.live_heap_mb":    mb(m2.live),
			"report.bytes":        float64(len(text) + len(js)),
		}
		ls.addResult(tr.Graph, res)
		for _, root := range obs.Tree(col) {
			if root.Span.Name == "find" {
				ls.addFindSplit(fromObs(root))
			}
		}
		a.layers = ls
	}
	return a, nil
}

// addResult records the counts the traced graph and the finder Result
// carry.
func (ls layerSample) addResult(traced *ddg.Graph, res *core.Result) {
	ls["trace.nodes"] = float64(traced.NumNodes())
	ls["ddg.arcs"] = float64(traced.NumArcs())
	graphs := []*ddg.Graph{traced}
	if res.Graph != traced {
		graphs = append(graphs, res.Graph)
	}
	for _, g := range graphs {
		st := g.PageStats()
		ls["ddg.spilled_mb"] += mb(uint64(st.SpilledBytes))
		ls["ddg.page_faults"] += float64(st.Faults)
		ls["ddg.peak_resident_mb"] += mb(uint64(st.PeakResidentBytes))
	}
	ls["core.simplified_nodes"] = float64(res.SimplifiedNodes)
	ls["core.pool_subs"] = float64(res.PoolSize)
	ls["core.iterations"] = float64(res.Iterations)
	ls["core.matches"] = float64(len(res.Matches))
	hits, misses, _ := res.CacheStats()
	ls[rawCacheHits], ls[rawCacheMisses] = float64(hits), float64(misses)
	checks, skips := res.PrescreenStats()
	ls["patterns.prescreen_checks"], ls[rawPrescreenSkips] = float64(checks), float64(skips)
	for _, k := range []string{"cp.solves", "cp.solve_ms", "cp.nodes", "cp.propagations", "cp.timeouts", rawSolutions} {
		ls[k] += 0
	}
	for _, ks := range res.SolverStats {
		ls["cp.solves"] += float64(ks.Runs)
		ls["cp.solve_ms"] += ms(ks.Elapsed)
		ls["cp.nodes"] += float64(ks.Nodes)
		ls["cp.propagations"] += float64(ks.Propagations)
		ls["cp.timeouts"] += float64(ks.Timeouts)
		ls[rawSolutions] += float64(ks.Solutions)
	}
}

func fromObs(n *obs.TreeNode) *span {
	s := &span{name: n.Span.Name, wall: ms(n.Span.Wall)}
	for _, k := range n.Children {
		s.kids = append(s.kids, fromObs(k))
	}
	return s
}

// execMS times an uninstrumented vm.New + Run of the program: the
// denominator of the tracing slowdown.
func execMS(p *program) (float64, error) {
	built := p.bench.Build(p.version, p.params)
	start := time.Now()
	m, err := vm.New(built.Prog)
	if err != nil {
		return 0, err
	}
	if _, err := m.Run(); err != nil {
		return 0, fmt.Errorf("running %s: %w", p.name(), err)
	}
	return ms(time.Since(start)), nil
}

// memPoint is a reading of the runtime's allocation and GC counters.
type memPoint struct{ alloc, gcs, live uint64 }

func readMem() memPoint {
	s := []metrics.Sample{
		{Name: "/gc/heap/allocs:bytes"},
		{Name: "/gc/cycles/total:gc-cycles"},
		{Name: "/gc/heap/live:bytes"},
	}
	metrics.Read(s)
	return memPoint{alloc: s[0].Value.Uint64(), gcs: s[1].Value.Uint64(), live: s[2].Value.Uint64()}
}

func mb(bytes uint64) float64 { return float64(bytes) / (1 << 20) }

// checker verifies one analysis's outputs, recording problems on o.
type checker interface {
	check(a *analysis, o *outcome)
	// endPass runs after every pass, for checks over the whole pass.
	endPass(o *outcome)
}

// runLibrary runs a workload that calls the pipeline's packages directly.
// Set-up is one warm-up pass over every program, repeated so setup_s is a
// median. The measurement then runs passes, each over every program in
// an order shuffled by the seed, until cfg.seconds have elapsed. In a
// traced run untraced and traced passes alternate, so the tracing
// overhead is measured within one process.
func runLibrary(cfg config, progs []*program, chk checker) (*outcome, error) {
	o := &outcome{values: map[string]float64{}}
	rng := rand.New(rand.NewSource(cfg.seed))
	one := func(p *program, withLayers bool) (*analysis, error) {
		a, err := analyze(p, withLayers)
		if err != nil {
			return nil, err
		}
		o.attempted++
		// Degraded covers a truncated trace (its diagnostic is on
		// Failures), a contained failure and an exhausted resource limit.
		if a.res.Degraded() {
			o.failed++
			o.problem("%s: degraded result", p.name())
		}
		chk.check(a, o)
		a.close()
		return a, nil
	}

	m := newMeasurement()
	for m.moreSetups(cfg) {
		start := time.Now()
		for _, p := range progs {
			if _, err := one(p, false); err != nil {
				return nil, err
			}
		}
		m.setups = append(m.setups, time.Since(start).Seconds())
		chk.endPass(o)
	}

	start := time.Now()
	for pass := 0; pass < minPasses(cfg) || time.Since(start).Seconds() < cfg.seconds; pass++ {
		withLayers := cfg.traced && pass%2 == 1
		var (
			ran  []*program
			lats []float64
		)
		for _, i := range rng.Perm(len(progs)) {
			p := progs[i]
			var vmMS float64
			if withLayers {
				var err error
				if vmMS, err = execMS(p); err != nil {
					return nil, err
				}
			}
			a, err := one(p, withLayers)
			if err != nil {
				return nil, err
			}
			ran, lats = append(ran, p), append(lats, ms(a.latency))
			if withLayers {
				a.layers["vm.exec_ms"] = vmMS
				m.samples = append(m.samples, a.layers)
			}
		}
		chk.endPass(o)
		total := 0.0
		for _, l := range lats {
			total += l
		}
		m.pass(total/1000, ran, lats, withLayers)
	}
	m.values(o, cfg.traced, daemonOnly)
	return o, nil
}
