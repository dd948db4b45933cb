// Package starbench re-implements the kernels of the Starbench parallel
// benchmark suite (Andersch et al. [2]) as MIR programs, in both a
// sequential and a Pthreads-style threaded version, exactly as the paper's
// evaluation requires (§6). The kernels reproduce the dataflow topology of
// the originals — including the two features behind the paper's six missed
// patterns (kmeans indices consumed only by addressing; ray-rot loops with
// mismatching iteration spaces) and the untriggered conditional reduction
// behind its two false patterns (streamcluster).
//
// bodytrack and h264dec are excluded as in the paper: their patterns
// (pipelines) are outside the analysis' scope.
package starbench

import (
	"fmt"
	"sort"

	"discovery/internal/mir"
	"discovery/internal/patterns"
)

// Version selects the sequential or the Pthreads implementation of a
// benchmark.
type Version string

// The two benchmark versions of the Starbench suite.
const (
	Seq      Version = "seq"
	Pthreads Version = "pthreads"
)

// Versions lists both versions in evaluation order.
func Versions() []Version { return []Version{Seq, Pthreads} }

// Params is a named set of integer input parameters (Table 2).
type Params map[string]int64

// Get returns a parameter value, panicking on absent keys (inputs are
// fixed tables, not user input).
func (p Params) Get(key string) int64 {
	v, ok := p[key]
	if !ok {
		panic(fmt.Sprintf("starbench: missing parameter %q", key))
	}
	return v
}

// String formats the parameters deterministically.
func (p Params) String() string {
	keys := make([]string, 0, len(p))
	for k := range p {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	s := ""
	for i, k := range keys {
		if i > 0 {
			s += ", "
		}
		s += fmt.Sprintf("%s=%d", k, p[k])
	}
	return s
}

// Built is a constructed benchmark program plus the anchor loops that
// ground-truth expectations refer to.
type Built struct {
	Prog *mir.Program
	// Anchors names the static loops that the expected patterns live in.
	Anchors map[string]mir.LoopID
}

// anchor registers a named anchor loop.
func (bt *Built) anchor(name string, id mir.LoopID) {
	if bt.Anchors == nil {
		bt.Anchors = map[string]mir.LoopID{}
	}
	bt.Anchors[name] = id
}

// Expectation is one ground-truth pattern from the manual studies the
// paper evaluates against (Table 3).
type Expectation struct {
	// Label is the Table 3 abbreviation: m, cm, fm, r, mr.
	Label string
	// Anchors are the anchor loops the pattern must touch.
	Anchors []string
	// Iteration is the finder iteration the paper reports discovering the
	// pattern in (1–3); 0 when the pattern is expected to be missed.
	Iteration int
	// Missed marks patterns the paper's heuristics miss, with the reason.
	Missed     bool
	MissReason string
}

// KindsFor returns the pattern kinds that satisfy a Table 3 label for a
// given version: per the Table 3 caption, r means a linear reduction for
// sequential versions and a tiled reduction for Pthreads versions (and mr
// correspondingly).
func KindsFor(label string, v Version) []patterns.Kind {
	switch label {
	case "m":
		return []patterns.Kind{patterns.KindMap}
	case "cm":
		return []patterns.Kind{patterns.KindConditionalMap}
	case "fm":
		return []patterns.Kind{patterns.KindFusedMap}
	case "r":
		if v == Seq {
			return []patterns.Kind{patterns.KindLinearReduction}
		}
		return []patterns.Kind{patterns.KindTiledReduction}
	case "mr":
		if v == Seq {
			return []patterns.Kind{patterns.KindLinearMapReduction}
		}
		return []patterns.Kind{patterns.KindTiledMapReduction}
	}
	panic(fmt.Sprintf("starbench: unknown pattern label %q", label))
}

// Benchmark describes one Starbench benchmark: its Table 2 inputs, its
// builder, and its Table 3 ground truth.
type Benchmark struct {
	Name string

	// Analysis and Reference are the Table 2 input parameter sets; the
	// analysis inputs drive pattern finding, the reference inputs describe
	// the original suite's full-size runs. Sensitivity is a second,
	// larger analysis-scale input used to classify additional patterns as
	// true or false (§6.1, Accuracy).
	Analysis, Reference, Sensitivity Params

	// AnalysisDesc and ReferenceDesc are the human-readable Table 2 rows.
	AnalysisDesc, ReferenceDesc string

	// Build constructs the benchmark program for a version and input.
	Build func(v Version, p Params) *Built

	// Expected returns the Table 3 ground truth for a version.
	Expected func(v Version) []Expectation

	// Outputs names the static arrays holding the benchmark's results;
	// the sequential and Pthreads versions must agree on them.
	Outputs []string
}

// All returns the evaluated Starbench benchmarks in the paper's Table 2
// order.
func All() []*Benchmark {
	return []*Benchmark{
		CRay(),
		RayRot(),
		MD5(),
		RGBYUV(),
		Rotate(),
		RotCC(),
		KMeans(),
		Streamcluster(),
	}
}

// ByName returns the benchmark with the given name, or nil.
func ByName(name string) *Benchmark {
	for _, b := range All() {
		if b.Name == name {
			return b
		}
	}
	return nil
}

// Lookup resolves a workload name against the evaluated suite first and
// then the extended registry (Extended), or returns nil.
func Lookup(name string) *Benchmark {
	if b := ByName(name); b != nil {
		return b
	}
	for _, b := range Extended() {
		if b.Name == name {
			return b
		}
	}
	return nil
}
