package obs

import (
	"encoding/json"
	"math"
	"os"
	"regexp"
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestNopRecorder(t *testing.T) {
	if Nop.Enabled() {
		t.Error("Nop reports enabled")
	}
	if id := Nop.StartSpan("x", 0); id != 0 {
		t.Errorf("Nop.StartSpan returned %d, want 0", id)
	}
	// All no-ops must be callable without effect.
	Nop.EndSpan(0)
	Nop.EndSpan(42, Failed("boom"))
	Nop.Count("c", 1)
	Nop.Gauge("g", 1)
	Nop.Observe("h", 1)
	if OrNop(nil) != Nop {
		t.Error("OrNop(nil) is not Nop")
	}
	c := NewCollector()
	if OrNop(c) != Recorder(c) {
		t.Error("OrNop(c) did not pass the collector through")
	}
}

func TestCollectorSpans(t *testing.T) {
	c := NewCollector()
	if !c.Enabled() {
		t.Fatal("collector not enabled")
	}
	root := c.StartSpan("find", 0, Str("bench", "md5"))
	child := c.StartSpan("match", root, Int("subs", 7))
	c.EndSpan(child, Int("matched", 3))
	fail := c.StartSpan("merge", root)
	c.EndSpan(fail, Failed("injected"))
	open := c.StartSpan("late", root)
	_ = open // deliberately left open
	c.EndSpan(root)

	spans := c.Spans()
	if len(spans) != 4 {
		t.Fatalf("got %d spans, want 4", len(spans))
	}
	byName := map[string]Span{}
	for _, s := range spans {
		byName[s.Name] = s
	}
	if s := byName["find"]; !s.Ended || s.Parent != 0 || s.Failed {
		t.Errorf("root span wrong: %+v", s)
	}
	if v, ok := byName["find"].Attr("bench"); !ok || v != "md5" {
		t.Errorf("root attr lost: %v %v", v, ok)
	}
	if s := byName["match"]; s.Parent != root || !s.Ended {
		t.Errorf("child span wrong: %+v", s)
	}
	if v, _ := byName["match"].Attr("matched"); v != "3" {
		t.Errorf("end attrs not merged: %q", v)
	}
	if s := byName["merge"]; !s.Failed {
		t.Errorf("failed span not marked: %+v", s)
	}
	if s := byName["late"]; s.Ended {
		t.Errorf("open span reported ended: %+v", s)
	}
	for _, s := range spans {
		if s.Wall < 0 {
			t.Errorf("span %s has negative wall %v", s.Name, s.Wall)
		}
	}

	// Double-end and zero-end are no-ops.
	before := byName["match"].Wall
	time.Sleep(time.Millisecond)
	c.EndSpan(child)
	c.EndSpan(0)
	c.EndSpan(9999)
	if got := c.Spans()[1].Wall; got != before {
		t.Errorf("double EndSpan changed wall time: %v -> %v", before, got)
	}
}

func TestTreeAssembly(t *testing.T) {
	c := NewCollector()
	a := c.StartSpan("a", 0)
	b := c.StartSpan("b", a)
	c.StartSpan("c", b)
	c.StartSpan("orphan", 555) // unknown parent becomes a root
	roots := Tree(c)
	if len(roots) != 2 {
		t.Fatalf("got %d roots, want 2", len(roots))
	}
	if roots[0].Span.Name != "a" || roots[1].Span.Name != "orphan" {
		t.Fatalf("unexpected roots: %s, %s", roots[0].Span.Name, roots[1].Span.Name)
	}
	if len(roots[0].Children) != 1 || roots[0].Children[0].Span.Name != "b" {
		t.Fatal("child b not under a")
	}
	if len(roots[0].Children[0].Children) != 1 {
		t.Fatal("grandchild c not under b")
	}
}

func TestRenderTree(t *testing.T) {
	c := NewCollector()
	root := c.StartSpan("find", 0)
	m := c.StartSpan("match", root, Int("iteration", 1))
	c.EndSpan(m)
	f := c.StartSpan("merge", root)
	c.EndSpan(f, Failed("injected bug"))
	c.EndSpan(root)

	out := RenderTree(c, RenderOptions{})
	for _, want := range []string{"find", "├─ match", "iteration=1", "└─ merge !", "failed=injected bug"} {
		if !strings.Contains(out, want) {
			t.Errorf("render missing %q:\n%s", want, out)
		}
	}
}

// allocSink keeps TestSpanAllocBytes's allocation live, so the compiler
// cannot drop it.
var allocSink []byte

// TestSpanAllocBytes: a span records the heap bytes allocated while it
// was open, exports them as alloc_bytes and renders them after the wall
// and CPU times, so that the wall time stays a line's second field.
func TestSpanAllocBytes(t *testing.T) {
	c := NewCollector()
	id := c.StartSpan("build", 0)
	allocSink = make([]byte, 4<<20)
	c.EndSpan(id)
	sp := c.Spans()[0]
	if sp.Alloc < 4<<20 {
		t.Errorf("span allocated %d bytes, want at least %d", sp.Alloc, 4<<20)
	}
	data, err := JSON(c)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatal(err)
	}
	if doc.Spans[0].Alloc != sp.Alloc {
		t.Errorf("alloc_bytes = %d, want %d", doc.Spans[0].Alloc, sp.Alloc)
	}
	line := strings.TrimSpace(RenderTree(c, RenderOptions{}))
	f := strings.Fields(line)
	if _, err := time.ParseDuration(f[1]); err != nil || !strings.Contains(line, "(alloc 4.") {
		t.Errorf("rendered line %q: want the wall time second and a 4.xMB alloc", line)
	}
	if n := testing.AllocsPerRun(100, func() { heapAllocs() }); n != 0 {
		t.Errorf("reading the allocation counter allocates %.0f times", n)
	}
}

func TestFormatBytes(t *testing.T) {
	for n, want := range map[uint64]string{0: "0B", 1023: "1023B", 1536: "1.5KB", 5 << 20: "5.0MB"} {
		if got := FormatBytes(n); got != want {
			t.Errorf("FormatBytes(%d) = %q, want %q", n, got, want)
		}
	}
}

func TestRenderTreeFoldsChildren(t *testing.T) {
	c := NewCollector()
	root := c.StartSpan("match", 0)
	for i := 0; i < 40; i++ {
		s := c.StartSpan("solve", root)
		c.EndSpan(s)
	}
	c.EndSpan(root)
	out := RenderTree(c, RenderOptions{MaxChildren: 5})
	if got := strings.Count(out, "solve"); got != 5 {
		t.Errorf("rendered %d solve lines, want 5:\n%s", got, out)
	}
	if !strings.Contains(out, "… 35 more span(s)") {
		t.Errorf("missing fold line:\n%s", out)
	}
	if got := strings.Count(RenderTree(c, RenderOptions{MaxChildren: -1}), "solve"); got != 40 {
		t.Errorf("unlimited render shows %d solve lines, want 40", got)
	}
}

func TestRegistryBasics(t *testing.T) {
	r := NewRegistry()
	r.Count("runs_total", 2)
	r.Count("runs_total", 3)
	r.Count(L("hits_total", "kind", "map"), 1)
	r.Gauge("pool", 7)
	r.Gauge("pool", 9) // last write wins
	if got := r.Counters()["runs_total"]; got != 5 {
		t.Errorf("counter = %d, want 5", got)
	}
	if got := r.Counters()[`hits_total{kind="map"}`]; got != 1 {
		t.Errorf("labeled counter = %d, want 1", got)
	}
	if got := r.Gauges()["pool"]; got != 9 {
		t.Errorf("gauge = %v, want 9", got)
	}
}

func TestLabelRendering(t *testing.T) {
	if got := L("m"); got != "m" {
		t.Errorf("L(m) = %q", got)
	}
	// Keys sort, so the registry key is order-independent.
	a := L("m", "b", "2", "a", "1")
	b := L("m", "a", "1", "b", "2")
	if a != b || a != `m{a="1",b="2"}` {
		t.Errorf("label order not canonical: %q vs %q", a, b)
	}
	if got := L("m", "k", "a\"b\\c\nd"); got != `m{k="a\"b\\c\nd"}` {
		t.Errorf("escaping wrong: %q", got)
	}
}

func TestHistogramBuckets(t *testing.T) {
	bounds := HistogramBounds()
	if len(bounds) != histNumBounds {
		t.Fatalf("bounds length %d", len(bounds))
	}
	for i := 1; i < len(bounds); i++ {
		if bounds[i] != 2*bounds[i-1] {
			t.Fatalf("bounds not log2-spaced at %d: %v %v", i, bounds[i-1], bounds[i])
		}
	}
	r := NewRegistry()
	// Exact bound values are inclusive upper bounds.
	r.Observe("h", 1.0)
	r.Observe("h", 1.5)
	r.Observe("h", 0)         // clamps to the first bucket
	r.Observe("h", -3)        // ditto
	r.Observe("h", 1e300)     // overflow bucket
	r.Observe("h", bounds[0]) // smallest finite bound
	h := r.Histograms()["h"]
	if h.Total != 6 {
		t.Fatalf("total %d, want 6", h.Total)
	}
	var sum uint64
	for _, n := range h.Counts {
		sum += n
	}
	if sum != h.Total {
		t.Fatalf("bucket counts sum %d != total %d", sum, h.Total)
	}
	oneIdx := histBucket(1.0)
	if bounds[oneIdx] != 1 {
		t.Errorf("1.0 in bucket with bound %v, want 1", bounds[oneIdx])
	}
	if got := histBucket(1.5); bounds[got] != 2 {
		t.Errorf("1.5 in bucket with bound %v, want 2", bounds[got])
	}
	if histBucket(0) != 0 || histBucket(-3) != 0 || histBucket(math.SmallestNonzeroFloat64) != 0 {
		t.Error("small samples not clamped to the first bucket")
	}
	if histBucket(1e300) != histNumBuckets-1 {
		t.Error("huge sample not in the overflow bucket")
	}
}

func TestJSONExport(t *testing.T) {
	c := NewCollector()
	root := c.StartSpan("find", 0, Str("bench", "md5"))
	c.EndSpan(root)
	c.Count("runs_total", 4)
	c.Gauge("pool", 2)
	c.Observe("latency_seconds", 0.5)

	data, err := JSON(c)
	if err != nil {
		t.Fatal(err)
	}
	var doc Document
	if err := json.Unmarshal(data, &doc); err != nil {
		t.Fatalf("export does not round-trip: %v", err)
	}
	if len(doc.Spans) != 1 || doc.Spans[0].Name != "find" || !doc.Spans[0].Ended {
		t.Errorf("spans wrong: %+v", doc.Spans)
	}
	if doc.Spans[0].Attrs["bench"] != "md5" {
		t.Errorf("attrs lost: %+v", doc.Spans[0].Attrs)
	}
	if doc.Counters["runs_total"] != 4 || doc.Gauges["pool"] != 2 {
		t.Errorf("metrics wrong: %+v %+v", doc.Counters, doc.Gauges)
	}
	h := doc.Histograms["latency_seconds"]
	if h.Count != 1 || h.Sum != 0.5 || len(h.Counts) != len(h.Bounds)+1 {
		t.Errorf("histogram wrong: %+v", h)
	}
}

// promLine matches one sample line of the Prometheus text format.
var promLine = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*(\{[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*"(,[a-zA-Z_][a-zA-Z0-9_]*="(\\.|[^"\\])*")*\})? (NaN|[+-]?[0-9.eE+-]+|\+Inf|-Inf)$`)

func TestPrometheusFormat(t *testing.T) {
	r := NewRegistry()
	r.Count("discovery_solver_runs_total", 3)
	r.Count(L("discovery_cache_hits_total", "kind", "map"), 2)
	r.Count(L("discovery_cache_hits_total", "kind", "linear reduction"), 1)
	r.Gauge("discovery_pool_size", 12)
	r.Observe("discovery_solve_seconds", 0.001)
	r.Observe("discovery_solve_seconds", 2.5)

	out := Prometheus(r)
	var seenType = map[string]string{}
	var count, lastBucket uint64
	haveCount, haveSum := false, false
	var prevCum int64 = -1
	for _, line := range strings.Split(strings.TrimRight(out, "\n"), "\n") {
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(line)
			if len(parts) != 4 {
				t.Fatalf("bad TYPE line: %q", line)
			}
			seenType[parts[2]] = parts[3]
			continue
		}
		if !promLine.MatchString(line) {
			t.Fatalf("line does not parse as Prometheus text format: %q", line)
		}
		fields := strings.Fields(line)
		name, val := fields[0], fields[1]
		switch {
		case strings.HasPrefix(name, "discovery_solve_seconds_bucket"):
			v, _ := strconv.ParseInt(val, 10, 64)
			if v < prevCum {
				t.Fatalf("bucket counts not cumulative: %q after %d", line, prevCum)
			}
			prevCum = v
			lastBucket = uint64(v)
		case strings.HasPrefix(name, "discovery_solve_seconds_sum"):
			f, _ := strconv.ParseFloat(val, 64)
			if f != 2.501 {
				t.Errorf("sum = %v, want 2.501", f)
			}
			haveSum = true
		case strings.HasPrefix(name, "discovery_solve_seconds_count"):
			v, _ := strconv.ParseUint(val, 10, 64)
			count, haveCount = v, true
		}
	}
	if seenType["discovery_solver_runs_total"] != "counter" ||
		seenType["discovery_cache_hits_total"] != "counter" ||
		seenType["discovery_pool_size"] != "gauge" ||
		seenType["discovery_solve_seconds"] != "histogram" {
		t.Errorf("TYPE lines wrong: %v", seenType)
	}
	if !haveCount || !haveSum {
		t.Fatal("histogram missing _sum or _count")
	}
	if count != 2 || lastBucket != count {
		t.Errorf("count %d, +Inf bucket %d; want both 2", count, lastBucket)
	}
	// Label sets within a family are sorted, so output is deterministic.
	if Prometheus(r) != out {
		t.Error("Prometheus output not stable across calls")
	}
	i := strings.Index(out, `kind="linear reduction"`)
	j := strings.Index(out, `kind="map"`)
	if i < 0 || j < 0 || i > j {
		t.Errorf("label sets not sorted:\n%s", out)
	}
}

func TestProfiler(t *testing.T) {
	prefix := t.TempDir() + "/prof"
	p, err := StartProfile(prefix)
	if err != nil {
		t.Fatal(err)
	}
	// Burn a little CPU so the profile has something in it.
	x := 0
	for i := 0; i < 1e6; i++ {
		x += i * i
	}
	_ = x
	if err := p.Stop(); err != nil {
		t.Fatal(err)
	}
	for _, path := range []string{p.CPUPath(), p.HeapPath()} {
		fi, err := os.Stat(path)
		if err != nil || fi.Size() == 0 {
			t.Errorf("profile %s missing or empty (err %v)", path, err)
		}
	}
	if err := p.Stop(); err != nil {
		t.Errorf("second Stop errored: %v", err)
	}
}
