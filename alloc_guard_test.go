package discovery

import (
	"runtime/metrics"
	"testing"

	"discovery/internal/core"
	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// maxFindBytesPerNode bounds what one Find allocates per simplified node
// on md5 with two 8,192-word buffers (50,360 simplified nodes). Find
// measured 70.5–72.6 bytes per node there on 2 vCPUs, with each phase's
// scratch covering only the sets, loops and arcs it reads; the bound
// leaves 24% headroom over the highest, and a phase that sizes its
// scratch by the whole graph again crosses it.
const maxFindBytesPerNode = 90

// TestFindAllocationPerNode guards Find's allocation per simplified node,
// read from the runtime's cumulative heap-allocation counter around one
// cold Find on a long md5 trace, where a phase whose scratch grows with
// the graph instead of with its sets shows up. The view-size gate is
// raised as for the pipebench md5-long workload, so that no view is
// skipped.
func TestFindAllocationPerNode(t *testing.T) {
	built := starbench.MD5().Build(starbench.Seq, starbench.Params{"nbuf": 2, "bufwords": 8192, "nproc": 2})
	tr, err := trace.Run(built.Prog)
	if err != nil {
		t.Fatal(err)
	}
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	res := core.Find(tr.Graph, core.Options{MaxViewGroups: 1 << 20})
	metrics.Read(sample)
	alloc := sample[0].Value.Uint64() - before
	if res.Degraded() || len(res.Patterns) == 0 {
		t.Fatalf("Find degraded or found nothing: %d patterns, failures %+v", len(res.Patterns), res.Failures)
	}
	perNode := float64(alloc) / float64(res.Graph.NumNodes())
	t.Logf("Find allocated %d bytes over %d simplified nodes: %.1f bytes per node", alloc, res.Graph.NumNodes(), perNode)
	if perNode > maxFindBytesPerNode {
		t.Errorf("Find allocated %.1f bytes per simplified node, bound %d", perNode, maxFindBytesPerNode)
	}
}
