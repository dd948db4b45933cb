package trace_test

// Pins on what the trace produces and what producing it costs: the graph
// fingerprints that key the daemon's disk store, and a per-node bound on
// the bytes a trace allocates.

import (
	"fmt"
	"runtime/metrics"
	"testing"

	"discovery/internal/starbench"
	"discovery/internal/trace"
)

// TestFingerprintsPinned traces Starbench programs at their Analysis
// parameters and checks Graph.Fingerprint against fixed values. The
// fingerprint is part of every -store disk key, so a change to how a trace
// is recorded or hashed that moves it would strand every stored result.
func TestFingerprintsPinned(t *testing.T) {
	for _, tc := range []struct {
		bench   string
		version starbench.Version
		want    string
	}{
		{"md5", starbench.Seq, "1e774f3a815a80ee730320fc84210e25"},
		{"streamcluster", starbench.Pthreads, "f3184edcc716e7f0cdc7291ba98d4fd9"},
		{"ray-rot", starbench.Pthreads, "4fb4bfaa601fcccf09e15e44f2fda927"},
		{"kmeans", starbench.Pthreads, "8df0804197cdf0d3683b16ce67c7ce1d"},
	} {
		b := starbench.ByName(tc.bench)
		res, err := trace.Run(b.Build(tc.version, b.Analysis).Prog)
		if err != nil {
			t.Fatalf("%s/%s: %v", tc.bench, tc.version, err)
		}
		fp := res.Graph.Fingerprint()
		if got := fmt.Sprintf("%016x%016x", fp.Hi, fp.Lo); got != tc.want {
			t.Errorf("%s/%s: fingerprint %s, want %s", tc.bench, tc.version, got, tc.want)
		}
	}
}

// TestTraceAllocPerNode bounds the heap bytes allocated per traced node
// over a whole trace.Run — execution, recording and finalization — of md5
// seq with two 4096-word buffers (34,266 nodes; the per-node figure is the
// same at 65,536 words and 526K nodes). Recording 48-byte records that
// held a position string and a scope pointer, in doubling slices,
// allocated about 351 B/node. Fixed-width records in chunks, interned
// positions and scopes, and slab-allocated scope frames measure about
// 79 B/node. The bound is half the former figure.
func TestTraceAllocPerNode(t *testing.T) {
	b := starbench.ByName("md5")
	prog := b.Build(starbench.Seq, starbench.Params{"nbuf": 2, "bufwords": 4096, "nproc": 2}).Prog
	sample := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}}
	metrics.Read(sample)
	before := sample[0].Value.Uint64()
	res, err := trace.Run(prog)
	if err != nil {
		t.Fatal(err)
	}
	metrics.Read(sample)
	perNode := float64(sample[0].Value.Uint64()-before) / float64(res.Graph.NumNodes())
	t.Logf("%d nodes, %.0f B/node allocated", res.Graph.NumNodes(), perNode)
	const bound = 351.0 / 2
	if perNode > bound {
		t.Errorf("trace allocated %.0f B/node, want at most %.0f", perNode, bound)
	}
}
