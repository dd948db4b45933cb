package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// minPairs is the fewest parent/change pairs a verdict may rest on.
const minPairs = 10

// benchDef is the part of BENCHMARK.json the comparison reads.
type benchDef struct {
	EndToEnd []e2eDef `json:"end_to_end"`
}

type e2eDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// runCompare applies the benchmark's rules to untraced runs of a parent
// (A) and a change (B), recorded with -out; the i-th run of a workload in
// A pairs with the i-th in B. For every end-to-end metric and workload it
// reports one verdict:
//
//   - gain: the change wins at least 9 in 10 pairs (ties count for
//     neither), its median differs from the parent's by more than the
//     parent's interquartile range, and no more runs failed than on the
//     parent;
//   - unresolved: fewer than 10 pairs, or the parent's spread (IQR over
//     median) exceeds the bound and not every change run beats every
//     parent run;
//   - regression: the change's median is worse than the parent's by more
//     than the bound;
//   - worse: the mirror of a gain, within the bound; it is reported so a
//     steady metric's slowdown shows, but does not fail the comparison;
//   - ok: none of the above.
//
// It returns whether anything regressed or a change run failed a check.
func runCompare(w io.Writer, benchPath, parentPath, changePath string) (bool, error) {
	var def benchDef
	data, err := os.ReadFile(benchPath)
	if err != nil {
		return false, err
	}
	if err := json.Unmarshal(data, &def); err != nil {
		return false, fmt.Errorf("%s: %w", benchPath, err)
	}
	parent, err := readRuns(parentPath)
	if err != nil {
		return false, err
	}
	change, err := readRuns(changePath)
	if err != nil {
		return false, err
	}

	bad := false
	fmt.Fprintf(w, "%-10s %-18s %12s %12s %8s %6s  %s\n",
		"workload", "metric", "parent", "change", "delta", "wins", "verdict")
	for _, wl := range workloads {
		a, b := parent[wl.name], change[wl.name]
		if len(a) == 0 && len(b) == 0 {
			continue
		}
		failedA, failedB := 0, 0
		for _, r := range a {
			failedA += r.Failed
		}
		for _, r := range b {
			failedB += r.Failed
			if !r.Correct {
				bad = true
				fmt.Fprintf(w, "%-10s change run failed its output checks\n", wl.name)
			}
		}
		n := len(a)
		if len(b) < n {
			n = len(b)
		}
		for _, m := range def.EndToEnd {
			xa, xb := values(a[:n], m.Name), values(b[:n], m.Name)
			lower := m.Better == "lower"
			better := func(x, y float64) bool { return (lower && x < y) || (!lower && x > y) }
			wins, losses := 0, 0
			for i := range xa {
				switch {
				case better(xb[i], xa[i]):
					wins++
				case better(xa[i], xb[i]):
					losses++
				}
			}
			medA, medB := median(xa), median(xb)
			q1, q3 := quartiles(xa)
			shift := math.Abs(medB-medA) > q3-q1
			worse := ratio(medB-medA, medA)
			if !lower {
				worse = -worse
			}
			verdict := "ok"
			switch {
			case n < minPairs:
				verdict = fmt.Sprintf("unresolved: %d pairs, need %d", n, minPairs)
			case wins*10 >= 9*n && shift && better(medB, medA) && failedB <= failedA:
				verdict = "gain"
			case ratio(q3-q1, medA) > m.Bound && !allBetter(xb, xa, better):
				verdict = fmt.Sprintf("unresolved: parent spread %.1f%% > bound %.0f%%", 100*ratio(q3-q1, medA), 100*m.Bound)
			case worse > m.Bound:
				verdict = fmt.Sprintf("REGRESSION: %.1f%% worse, bound %.0f%%", 100*worse, 100*m.Bound)
				bad = true
			case losses*10 >= 9*n && shift:
				verdict = fmt.Sprintf("worse: %.1f%%, within bound %.0f%%", 100*worse, 100*m.Bound)
			}
			fmt.Fprintf(w, "%-10s %-18s %12.4g %12.4g %+7.1f%% %3d/%-2d  %s\n",
				wl.name, m.Name, medA, medB, 100*ratio(medB-medA, medA), wins, n, verdict)
		}
	}
	return bad, nil
}

// readRuns reads an -out file's untraced runs, by workload in file order.
func readRuns(path string) (map[string][]*resultJSON, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	runs := map[string][]*resultJSON{}
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for line := 1; sc.Scan(); line++ {
		var r recordedRun
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			return nil, fmt.Errorf("%s:%d: %w", path, line, err)
		}
		if r.Trace == 0 && r.Result != nil {
			runs[r.Workload] = append(runs[r.Workload], r.Result)
		}
	}
	return runs, sc.Err()
}

func values(runs []*resultJSON, metric string) []float64 {
	var xs []float64
	for _, r := range runs {
		xs = append(xs, r.Metrics[metric].Value)
	}
	return xs
}

// allBetter reports whether every change value beats every parent value.
func allBetter(change, parent []float64, better func(x, y float64) bool) bool {
	for _, c := range change {
		for _, p := range parent {
			if !better(c, p) {
				return false
			}
		}
	}
	return len(change) > 0
}
