package obs

import (
	"context"
	"runtime/metrics"
	rtrace "runtime/trace"
	"sync"
	"time"
)

// Collector is the in-memory Recorder: it accumulates spans and metrics
// for one analysis run and exports them afterwards (Tree, RenderTree,
// JSON, Prometheus). Safe for concurrent use — the finder's matching
// workers and the tracer's finalization all emit into one Collector.
//
// Span CPU time is the process-wide CPU delta (user+system, all threads)
// between the span's start and end, read from the OS where supported.
// For a span that brackets parallel work this deliberately exceeds wall
// time — cpu/wall is the span's effective parallelism — and for spans
// that overlap concurrently it double-counts; it answers "what did the
// machine spend while this span was open", not "what did this goroutine
// burn".
//
// Span allocation is the same kind of delta: the bytes the whole process
// allocated on the heap (runtime/metrics /gc/heap/allocs:bytes) while
// the span was open. It is approximate twice over: the runtime counts
// small objects a cached span at a time, so a span that allocates a few
// KB can read 0, and spans that overlap, as the daemon's concurrent
// requests do, count each other's allocations.
//
// When the process is running under runtime/trace, every span is mirrored
// 1:1 into a trace region of the same name, so go tool trace timelines
// line up with the exported phase tree.
type Collector struct {
	reg *Registry

	mu      sync.Mutex
	spans   []spanRec
	regions map[SpanID]*rtrace.Region
	epoch   time.Time
}

// spanRec is one span's mutable state; index+1 in Collector.spans is its
// SpanID.
type spanRec struct {
	name   string
	parent SpanID
	start  time.Time
	cpu0   time.Duration // process CPU at start
	alloc0 uint64        // process heap allocation at start
	wall   time.Duration
	cpu    time.Duration
	alloc  uint64
	ended  bool
	failed bool
	attrs  []Attr
}

// NewCollector returns an empty collector.
func NewCollector() *Collector {
	return &Collector{reg: NewRegistry(), epoch: time.Now()}
}

// Enabled implements Recorder: a Collector always records.
func (c *Collector) Enabled() bool { return true }

// StartSpan implements Recorder.
func (c *Collector) StartSpan(name string, parent SpanID, attrs ...Attr) SpanID {
	now := time.Now()
	cpu, alloc := processCPU(), heapAllocs()
	var region *rtrace.Region
	if rtrace.IsEnabled() {
		region = rtrace.StartRegion(context.Background(), name)
	}
	c.mu.Lock()
	c.spans = append(c.spans, spanRec{
		name:   name,
		parent: parent,
		start:  now,
		cpu0:   cpu,
		alloc0: alloc,
		attrs:  append([]Attr(nil), attrs...),
	})
	id := SpanID(len(c.spans))
	if region != nil {
		if c.regions == nil {
			c.regions = map[SpanID]*rtrace.Region{}
		}
		c.regions[id] = region
	}
	c.mu.Unlock()
	return id
}

// EndSpan implements Recorder. Final attributes are appended; an
// AttrFailed attribute marks the span failed. Ending the zero id or an
// already-ended span is a no-op.
func (c *Collector) EndSpan(id SpanID, attrs ...Attr) {
	now := time.Now()
	cpu, alloc := processCPU(), heapAllocs()
	c.mu.Lock()
	if id == 0 || int(id) > len(c.spans) || c.spans[id-1].ended {
		c.mu.Unlock()
		return
	}
	s := &c.spans[id-1]
	s.ended = true
	s.wall = now.Sub(s.start)
	s.cpu = cpu - s.cpu0
	s.alloc = alloc - s.alloc0
	for _, a := range attrs {
		if a.Key == AttrFailed {
			s.failed = true
		}
		s.attrs = append(s.attrs, a)
	}
	region := c.regions[id]
	delete(c.regions, id)
	c.mu.Unlock()
	if region != nil {
		region.End()
	}
}

// Count implements Recorder.
func (c *Collector) Count(name string, delta int64) { c.reg.Count(name, delta) }

// Gauge implements Recorder.
func (c *Collector) Gauge(name string, v float64) { c.reg.Gauge(name, v) }

// Observe implements Recorder.
func (c *Collector) Observe(name string, v float64) { c.reg.Observe(name, v) }

// Metrics returns the collector's registry (live, not a copy).
func (c *Collector) Metrics() *Registry { return c.reg }

// Epoch returns the collector's creation time; exporters render span
// starts as offsets from it.
func (c *Collector) Epoch() time.Time { return c.epoch }

// Span is an exported copy of one recorded span.
type Span struct {
	ID     SpanID
	Parent SpanID
	Name   string
	// Start is the span's start time. Exporters render it relative to the
	// collector's creation so runs are comparable.
	Start time.Time
	// Wall is the span's wall-clock duration; for a span still open at
	// snapshot time it is the duration so far.
	Wall time.Duration
	// CPU is the process CPU consumed while the span was open (see the
	// Collector doc for what that means under parallelism).
	CPU time.Duration
	// Alloc is the heap bytes the process allocated while the span was
	// open, process-wide like CPU.
	Alloc uint64
	// Ended reports the span was closed; an open span at snapshot time
	// (a crash that skipped cleanup) exports with Ended false.
	Ended bool
	// Failed reports the span ended with a Failed attribute.
	Failed bool
	Attrs  []Attr
}

// Attr returns the value of the first attribute with the given key, and
// whether it exists.
func (s Span) Attr(key string) (string, bool) {
	for _, a := range s.Attrs {
		if a.Key == key {
			return a.Val, true
		}
	}
	return "", false
}

// Spans snapshots all recorded spans in start order (the order StartSpan
// was called). Open spans are included with Ended false and their
// duration so far.
func (c *Collector) Spans() []Span {
	now := time.Now()
	cpu, alloc := processCPU(), heapAllocs()
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Span, len(c.spans))
	for i := range c.spans {
		s := &c.spans[i]
		out[i] = Span{
			ID:     SpanID(i + 1),
			Parent: s.parent,
			Name:   s.name,
			Start:  s.start,
			Wall:   s.wall,
			CPU:    s.cpu,
			Alloc:  s.alloc,
			Ended:  s.ended,
			Failed: s.failed,
			Attrs:  append([]Attr(nil), s.attrs...),
		}
		if !s.ended {
			out[i].Wall = now.Sub(s.start)
			out[i].CPU = cpu - s.cpu0
			out[i].Alloc = alloc - s.alloc0
		}
	}
	return out
}

// heapAllocs returns the bytes the process has allocated on the heap so
// far; spans record deltas of it. A sample passed to metrics.Read escapes
// to the heap, so the samples are pooled: a read allocates nothing.
func heapAllocs() uint64 {
	sample := allocSamples.Get().(*[1]metrics.Sample)
	metrics.Read(sample[:])
	n := sample[0].Value.Uint64()
	allocSamples.Put(sample)
	return n
}

var allocSamples = sync.Pool{New: func() any {
	return &[1]metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
}}
