package main

// layerSample is one analysis's per-layer measurements, from the library
// calls or from a daemon response. Each key is the per-layer metric the
// value is a per-analysis mean of; the lower-case keys without a layer
// prefix are raw sums that only feed the ratio metrics.
type layerSample map[string]float64

// Raw sample keys that are not metrics themselves.
const (
	rawFindChildren   = "find_children_ms"
	rawCacheHits      = "cache_hits"
	rawCacheMisses    = "cache_misses"
	rawPrescreenSkips = "prescreen_skips"
	rawSolutions      = "solutions"
)

// span is one node of a span tree, whichever way it was exported.
type span struct {
	name string
	wall float64 // ms
	kids []*span
}

// phaseMetrics maps the finder's phase span names to their metrics.
var phaseMetrics = map[string]string{
	"simplify":      "core.simplify_ms",
	"decompose":     "core.decompose_ms",
	"cache-prepare": "core.cache_prepare_ms",
	"match":         "core.match_ms",
	"subtract":      "core.subtract_ms",
	"fuse":          "core.fuse_ms",
	"merge":         "core.merge_ms",
}

// addFindSplit records the "find" span's phase split: each phase's wall
// time summed over iterations, the children's total, and the span's self
// time (its wall minus its children).
func (ls layerSample) addFindSplit(find *span) {
	for _, m := range phaseMetrics { // a phase that did not run counts 0
		ls[m] += 0
	}
	var add func(s *span)
	add = func(s *span) {
		if m, ok := phaseMetrics[s.name]; ok {
			ls[m] += s.wall
		}
		if s.name == "iteration" {
			for _, k := range s.kids {
				add(k)
			}
		}
	}
	children := 0.0
	for _, k := range find.kids {
		// A "sched" span brackets the run's share of a shared solve pool;
		// it overlaps the phases instead of being one.
		if k.name != "sched" {
			children += k.wall
			add(k)
		}
	}
	ls[rawFindChildren] += children
	ls["core.find_self_ms"] += find.wall - children
}

// daemonOnly are the per-layer metrics of layers only the daemon runs;
// the library workloads report them as 0. libraryOnly are the ones the
// daemon cannot attribute to a request from outside (allocation and GC
// counters are process-wide, shared by concurrent requests; responses
// carry no arc count; the daemon runs without a spill budget).
var (
	daemonOnly = []string{
		"store.gets", "store.puts", "store.hit_frac", "store.errors",
		"store.get_frac", "store.put_frac",
		"server.queue_frac", "server.http_frac", "server.rejected",
		"sched.steals", "sched.helped", "sched.expired",
	}
	libraryOnly = []string{
		"trace.alloc_mb", "trace.gc_cycles", "core.find_alloc_mb", "core.find_gc_cycles",
		"ddg.arcs", "ddg.live_heap_mb", "ddg.spilled_mb", "ddg.page_faults", "ddg.peak_resident_mb",
	}
)

// layerValues sets every per-layer metric the samples carry: the mean
// per analysis, or for the ratio metrics a ratio of sums.
func layerValues(samples []layerSample, v map[string]float64) {
	sum := layerSample{}
	for _, s := range samples {
		for k, x := range s {
			sum[k] += x
		}
	}
	for _, d := range perLayer {
		if x, ok := sum[d.name]; ok {
			v[d.name] = ratio(x, float64(len(samples)))
		}
	}
	decisions := sum[rawCacheHits] + sum[rawCacheMisses]
	v["trace.ns_per_node"] = ratio(sum["trace.run_ms"]*1e6, sum["trace.nodes"])
	v["trace.overhead_x"] = ratio(sum["trace.run_ms"], sum["vm.exec_ms"])
	v["core.span_coverage"] = ratio(sum[rawFindChildren], sum["core.find_ms"])
	v["core.cache_hit_frac"] = ratio(sum[rawCacheHits], decisions)
	v["patterns.prescreen_skip_frac"] = ratio(sum[rawPrescreenSkips], decisions)
	v["cp.yield_frac"] = ratio(sum[rawSolutions], sum["cp.solves"])
}

// measurement is what a run's set-ups and timed passes collected.
type measurement struct {
	setups               []float64 // s
	passes, tracedPasses []float64 // s
	latencies            []float64 // ms, untraced passes
	// perProgram holds, for each untraced pass, each program's latency in
	// it: the sum of its requests' latencies (ms).
	perProgram map[*program][]float64
	samples    []layerSample // traced passes
}

func newMeasurement() *measurement {
	return &measurement{perProgram: map[*program][]float64{}}
}

// moreSetups reports whether the run makes another set-up. setup_s is the
// median of at least 5 set-ups taking at least 2 s in all, so a cheap
// set-up is sampled often enough for its median to hold still. A smoke run
// makes one.
func (m *measurement) moreSetups(cfg config) bool {
	if cfg.smoke {
		return len(m.setups) < 1
	}
	total := 0.0
	for _, s := range m.setups {
		total += s
	}
	return len(m.setups) < 5 || total < 2
}

// pass records one timed pass: its time and the latency of each of its
// requests, with the program each request analysed.
func (m *measurement) pass(seconds float64, progs []*program, latencies []float64, traced bool) {
	if traced {
		m.tracedPasses = append(m.tracedPasses, seconds)
		return
	}
	m.passes = append(m.passes, seconds)
	m.latencies = append(m.latencies, latencies...)
	sums := map[*program]float64{}
	for i, p := range progs {
		sums[p] += latencies[i]
	}
	for p, sum := range sums {
		m.perProgram[p] = append(m.perProgram[p], sum)
	}
}

// values sets the run's metrics: the end-to-end metrics of an untraced
// run, or the per-layer metrics of a traced one, with the metrics of the
// layers named in absent (which this workload never runs) reported as 0.
func (m *measurement) values(o *outcome, traced bool, absent []string) {
	printSpread("passes (s)", m.passes)
	printSpread("requests (ms)", m.latencies)
	if traced {
		layerValues(m.samples, o.values)
		o.values["bench.trace_overhead_frac"] = median(m.tracedPasses)/median(m.passes) - 1
		var medians []float64
		for _, lats := range m.perProgram {
			medians = append(medians, median(lats))
		}
		o.values["bench.program_geomean_ms"] = geomean(medians)
		for _, name := range absent {
			o.values[name] = 0
		}
		checkCoverage(o)
		return
	}
	o.values["setup_s"] = median(m.setups)
	o.values["pass_s"] = median(m.passes)
	o.values["peak_rss_mb"] = peakRSSMB()
}

// minPasses is 1, or 2 for a traced run, which alternates untraced and
// traced passes.
func minPasses(cfg config) int {
	if cfg.traced {
		return 2
	}
	return 1
}

// checkCoverage fails the traced run when the find span's children
// account for too little of core.Find's wall time for the phase split to
// be trusted.
func checkCoverage(o *outcome) {
	if c := o.values["core.span_coverage"]; c < minSpanCoverage {
		o.problem("find span children cover %.1f%% of core.Find wall time, below %.0f%%",
			100*c, 100*minSpanCoverage)
	}
}
