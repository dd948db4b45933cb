package trace_test

import (
	"fmt"
	"testing"

	"discovery/internal/starbench"
	"discovery/internal/trace"
	"discovery/internal/vm"
)

// BenchmarkTraceThroughput measures DDG construction throughput
// (operations traced per second) for the md5 kernel, sequentially and
// split over 2/4/8 worker threads:
//
//	go test ./internal/trace/ -bench TraceThroughput -benchtime 5x
//
// The per-thread tracer should scale with worker threads (GOMAXPROCS>=4
// to see it); bench/pipebench times the tracer inside the whole pipeline.
func BenchmarkTraceThroughput(b *testing.B) {
	const nbuf, bufwords = 256, 4
	md5 := starbench.ByName("md5")
	configs := []struct {
		version starbench.Version
		threads int
	}{
		{starbench.Seq, 1},
		{starbench.Pthreads, 2},
		{starbench.Pthreads, 4},
		{starbench.Pthreads, 8},
	}
	for _, cfg := range configs {
		nproc := int64(cfg.threads)
		if cfg.version == starbench.Seq {
			nproc = 2 // unused by the seq build
		}
		built := md5.Build(cfg.version,
			starbench.Params{"nbuf": nbuf, "bufwords": bufwords, "nproc": nproc})
		b.Run(fmt.Sprintf("%s-%dthreads", cfg.version, cfg.threads), func(b *testing.B) {
			var ops int64
			for i := 0; i < b.N; i++ {
				res, err := trace.Run(built.Prog, vm.WithMaxOps(1<<32))
				if err != nil {
					b.Fatal(err)
				}
				ops = res.Ops
			}
			b.ReportMetric(float64(ops)*float64(b.N)/b.Elapsed().Seconds(), "ops/sec")
		})
	}
}
