// Package obs is the analysis pipeline's observability layer: hierarchical
// phase spans (wall + CPU time, parent links, per-span attributes), a
// metrics registry (counters, gauges, fixed-log-bucket histograms), and
// profiling hooks (runtime/pprof capture, runtime/trace regions mapped 1:1
// to spans).
//
// The package is dependency-free (standard library only) so every layer of
// the pipeline — the tracer, the finder, the matchers, the view cache —
// can emit into it without import cycles. Emission goes through
// the Recorder interface; the default is Nop, whose methods do nothing, so
// instrumented code pays one interface call (and can skip even attribute
// construction by checking Enabled) when observability is off. Collector
// is the real Recorder: it accumulates spans and metrics in memory, safe
// for concurrent use by the finder's matching workers, and exports them as
// a phase-tree text rendering, JSON, or Prometheus text format.
package obs

import (
	"strconv"
)

// SpanID identifies one span within a Recorder. The zero SpanID means "no
// span": it is what Nop returns, and what a root span uses as its parent.
type SpanID uint64

// Attr is one key/value annotation on a span (sub-DDG size, solver
// verdict, iteration number, ...). Values are pre-rendered strings so the
// no-op path never formats anything — construct attrs behind Enabled when
// emitting from a hot path.
type Attr struct {
	Key, Val string
}

// Str builds a string attribute.
func Str(key, val string) Attr { return Attr{Key: key, Val: val} }

// Int builds an integer attribute.
func Int(key string, v int64) Attr { return Attr{Key: key, Val: strconv.FormatInt(v, 10)} }

// AttrFailed is the attribute key marking a span failed. Ending a span
// with Failed(...) sets it; exporters render such spans with a "!" marker
// and Span.Failed reports it.
const AttrFailed = "failed"

// Failed builds the conventional failure attribute: a span that ended
// because its work panicked or errored, with the reason as the value.
func Failed(reason string) Attr { return Attr{Key: AttrFailed, Val: reason} }

// Recorder receives spans and metrics from instrumented code.
//
// Spans are hierarchical: StartSpan takes the parent's id (zero for a
// root) and returns the new span's id; EndSpan closes it, optionally
// attaching final attributes (outcome counts, verdicts). Start and End of
// one span must be called on the same goroutine — that is what lets a
// Collector mirror spans into runtime/trace regions — but different spans
// may start and end on different goroutines concurrently.
//
// Metrics are named cumulative instruments: Count adds to a counter,
// Gauge sets a last-value-wins gauge, Observe records one sample into a
// histogram with fixed log-scale buckets. Metric names may carry labels
// rendered by L ("name{k=\"v\"}").
//
// All methods must be safe for concurrent use.
type Recorder interface {
	// Enabled reports whether the recorder keeps anything. Hot paths check
	// it before building attributes or label strings, so a disabled
	// recorder costs one interface call and no allocation.
	Enabled() bool
	// StartSpan opens a span under parent (zero for a root span) and
	// returns its id. A disabled recorder returns zero.
	StartSpan(name string, parent SpanID, attrs ...Attr) SpanID
	// EndSpan closes the span, attaching any final attributes. Ending the
	// zero SpanID, or a span twice, is a no-op.
	EndSpan(id SpanID, attrs ...Attr)
	// Count adds delta to the named counter.
	Count(name string, delta int64)
	// Gauge sets the named gauge.
	Gauge(name string, v float64)
	// Observe records one sample into the named histogram.
	Observe(name string, v float64)
}

// Nop is the disabled Recorder: every method does nothing, Enabled
// reports false, and StartSpan returns the zero SpanID. It is the value
// OrNop resolves nil to, so instrumented structs can hold a Recorder
// field that is never nil.
var Nop Recorder = nopRecorder{}

type nopRecorder struct{}

func (nopRecorder) Enabled() bool                            { return false }
func (nopRecorder) StartSpan(string, SpanID, ...Attr) SpanID { return 0 }
func (nopRecorder) EndSpan(SpanID, ...Attr)                  {}
func (nopRecorder) Count(string, int64)                      {}
func (nopRecorder) Gauge(string, float64)                    {}
func (nopRecorder) Observe(string, float64)                  {}

// OrNop resolves a possibly-nil Recorder to a usable one.
func OrNop(r Recorder) Recorder {
	if r == nil {
		return Nop
	}
	return r
}
