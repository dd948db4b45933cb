package trace

// Observability wiring for traced executions. RunObserved is Run with a
// span tree and trace metrics attached: a "trace" span wrapping the whole
// run, an "execute" child for the instrumented VM execution, and a
// "finalize" child for the buffer merge. Per-thread node counts go into a
// histogram so skew across VM threads is visible, and the execute phase's
// node throughput lands in a gauge. Run itself stays observability-free.

import (
	"errors"
	"fmt"
	"time"

	"discovery/internal/analysis"
	"discovery/internal/mir"
	"discovery/internal/obs"
	"discovery/internal/vm"
)

// threadNodes returns (thread id, traced node count) pairs for every
// registered thread buffer, in thread order.
func (b *Builder) threadNodes() (threads []int32, counts []int) {
	b.mu.Lock()
	defer b.mu.Unlock()
	for _, tb := range b.bufs {
		if tb != nil {
			threads = append(threads, tb.thread)
			counts = append(counts, len(tb.recs))
		}
	}
	return threads, counts
}

// RunObserved is Run with phase spans and trace metrics recorded into rec
// (under parent). With a nil or disabled recorder it behaves exactly like
// Run. The returned error, if any, is also marked on the corresponding
// span, so a failed run still yields a closed, exportable span tree.
func RunObserved(prog *mir.Program, rec obs.Recorder, parent obs.SpanID, opts ...vm.Option) (res *Result, err error) {
	rec = obs.OrNop(rec)
	if !rec.Enabled() {
		return Run(prog, opts...)
	}
	b := NewBuilder()
	root := rec.StartSpan("trace", parent, obs.Str("program", prog.Name))
	defer func() {
		attrs := []obs.Attr{}
		if res != nil {
			attrs = append(attrs,
				obs.Int("nodes", int64(res.Graph.NumNodes())),
				obs.Int("ops", res.Ops))
			if res.Degraded() {
				attrs = append(attrs, obs.Int("truncated_threads", int64(len(res.TruncatedThreads))))
			}
		}
		if err != nil {
			attrs = append(attrs, obs.Failed(err.Error()))
		}
		rec.EndSpan(root, attrs...)
	}()

	opts = append([]vm.Option{vm.WithTracer(b)}, opts...)
	m, err := vm.New(prog, opts...)
	if err != nil {
		return nil, err
	}

	exec := rec.StartSpan("execute", root)
	start := time.Now()
	ret, rerr := m.Run()
	elapsed := time.Since(start)
	threads, counts := b.threadNodes()
	total := int64(0)
	for i, n := range counts {
		rec.Observe(obs.MetricTraceThreadNodes, float64(n))
		rec.Count(obs.L(obs.MetricTraceNodes, "thread", fmt.Sprint(threads[i])), int64(n))
		total += int64(n)
	}
	rec.Count(obs.MetricTraceNodes, total)
	if secs := elapsed.Seconds(); secs > 0 {
		rec.Gauge(obs.MetricTraceThroughput, float64(total)/secs)
	}
	execAttrs := []obs.Attr{
		obs.Int("threads", int64(len(threads))),
		obs.Int("traced_nodes", total),
	}
	if rerr != nil {
		execAttrs = append(execAttrs, obs.Failed(rerr.Error()))
	}
	rec.EndSpan(exec, execAttrs...)
	if rerr != nil {
		return nil, fmt.Errorf("trace: running %q: %w", prog.Name, rerr)
	}

	fin := rec.StartSpan("finalize", root)
	g, gerr := b.Graph()
	if gerr != nil {
		rec.EndSpan(fin, obs.Failed(gerr.Error()))
		var ae *analysis.Error
		if errors.As(gerr, &ae) {
			ae.InProgram(prog.Name)
		}
		return nil, gerr
	}
	loops, groups := g.IterIndexStats()
	if loops > 0 {
		rec.Gauge(obs.MetricTraceIterIndexes, float64(loops))
		rec.Gauge(obs.MetricTraceIterGroups, float64(groups))
	}
	rec.EndSpan(fin,
		obs.Int("graph_nodes", int64(g.NumNodes())),
		obs.Int("iter_indexes", int64(loops)))
	return &Result{Graph: g, Return: ret, Ops: m.Ops(), TruncatedThreads: b.Truncated()}, nil
}
