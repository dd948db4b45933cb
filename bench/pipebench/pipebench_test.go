package main

import (
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

const benchmarkJSON = "../../BENCHMARK.json"

type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []e2eDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readBenchmark(t *testing.T) *benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(benchmarkJSON)
	if err != nil {
		t.Fatal(err)
	}
	var def benchmarkFile
	if err := json.Unmarshal(data, &def); err != nil {
		t.Fatal(err)
	}
	return &def
}

// TestBenchmarkDefinition checks BENCHMARK.json's limits and that it names
// exactly the workloads and metrics the harness implements.
func TestBenchmarkDefinition(t *testing.T) {
	def := readBenchmark(t)
	if n := len(def.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, want 2 to 8", n)
	}
	if n := len(def.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, want 1 to 16", n)
	}
	if n := len(def.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, want 1 to 128", n)
	}
	nameRE := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	name := func(n string) {
		if !nameRE.MatchString(n) {
			t.Errorf("name %q does not match %s", n, nameRE)
		}
		if seen[n] {
			t.Errorf("name %q used twice", n)
		}
		seen[n] = true
	}
	var wl []string
	for _, w := range def.Workloads {
		name(w.Name)
		wl = append(wl, w.Name)
		if w.Why == "" || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of 1 to 200 characters", w.Name)
		}
	}
	if got, want := strings.Join(wl, ", "), workloadNames(); got != want {
		t.Errorf("BENCHMARK.json workloads %s, harness runs %s", got, want)
	}
	check := func(kind, n, unit, better string, defs []metricDef) {
		name(n)
		if !unitRE.MatchString(unit) {
			t.Errorf("%s: unit %q does not match %s", n, unit, unitRE)
		}
		if better != "lower" && better != "higher" {
			t.Errorf("%s: better is %q", n, better)
		}
		for _, d := range defs {
			if d.name == n {
				if d.unit != unit {
					t.Errorf("%s: BENCHMARK.json unit %q, harness emits %q", n, unit, d.unit)
				}
				return
			}
		}
		t.Errorf("%s metric %s is not emitted by the harness", kind, n)
	}
	for _, m := range def.EndToEnd {
		check("end-to-end", m.Name, m.Unit, m.Better, endToEnd)
		if m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("%s: bound %g outside (0, 0.25]", m.Name, m.Bound)
		}
	}
	for _, m := range def.PerLayer {
		check("per-layer", m.Name, m.Unit, m.Better, perLayer)
	}
	if len(def.EndToEnd) != len(endToEnd) || len(def.PerLayer) != len(perLayer) {
		t.Errorf("BENCHMARK.json lists %d+%d metrics, the harness emits %d+%d",
			len(def.EndToEnd), len(def.PerLayer), len(endToEnd), len(perLayer))
	}
}

// TestSmoke runs every workload at smoke size — one pass, md5 inputs
// divided by 16, daemon-mix for 2 s — untraced and traced, and checks that
// the outputs pass their reference checks and every metric BENCHMARK.json
// names is emitted with its unit.
func TestSmoke(t *testing.T) {
	def := readBenchmark(t)
	t.Setenv("TMPDIR", t.TempDir())
	progress = io.Discard
	t.Cleanup(func() { progress = os.Stderr })
	for _, w := range workloads {
		for _, traced := range []bool{false, true} {
			cfg := config{seed: 1, traced: traced, smoke: true, root: filepath.Join("..", "..")}
			if w.name == "daemon-mix" {
				cfg.seconds = 2
			}
			o, err := w.run(cfg)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			res, err := o.result(traced)
			if err != nil {
				t.Fatalf("%s traced=%t: %v", w.name, traced, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Errorf("%s traced=%t: correct=%t attempted=%d failed=%d: %v",
					w.name, traced, res.Correct, res.Attempted, res.Failed, o.problems)
			}
			want := map[string]string{}
			if traced {
				for _, m := range def.PerLayer {
					want[m.Name] = m.Unit
				}
			} else {
				for _, m := range def.EndToEnd {
					want[m.Name] = m.Unit
				}
			}
			for n, unit := range want {
				if got, ok := res.Metrics[n]; !ok || got.Unit != unit {
					t.Errorf("%s traced=%t: metric %s = %+v, want unit %s", w.name, traced, n, got, unit)
				}
			}
			if len(res.Metrics) != len(want) {
				t.Errorf("%s traced=%t: %d metrics, BENCHMARK.json names %d", w.name, traced, len(res.Metrics), len(want))
			}
		}
	}
}

func TestQuartilesMatchPython(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) and ([3, 1, 2], n=4).
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{3, 1, 2}, 1, 3},
	} {
		if q1, q3 := quartiles(c.xs); q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g; want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// TestCompareVerdicts feeds -compare a change that is faster on every
// pair of suite-1x, slower past every bound on md5-wide, and slower within
// every bound on md5-long.
func TestCompareVerdicts(t *testing.T) {
	def := readBenchmark(t)
	minBound := 1.0
	for _, m := range def.EndToEnd {
		minBound = math.Min(minBound, m.Bound)
	}
	scale := map[string]float64{"suite-1x": 0.5, "md5-wide": 1.5, "md5-long": 1 + minBound/2}
	want := map[string]string{"suite-1x": "gain", "md5-wide": "REGRESSION", "md5-long": "worse"}
	dir := t.TempDir()
	write := func(name string, change bool) string {
		path := filepath.Join(dir, name)
		for i := 0; i < 10; i++ {
			for _, wl := range []string{"suite-1x", "md5-wide", "md5-long"} {
				res := &resultJSON{Correct: true, Attempted: 1, Metrics: map[string]metricJSON{}}
				for j, m := range endToEnd {
					// Noise that differs per run and metric.
					v := 100 + float64((i+j)%3*(j+1))/10
					if change {
						v *= scale[wl]
					}
					res.Metrics[m.name] = metricJSON{Value: v, Unit: m.unit}
				}
				if err := appendRun(path, wl, config{seed: int64(i)}, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	parent, change := write("parent.jsonl", false), write("change.jsonl", true)
	var out strings.Builder
	regressed, err := runCompare(&out, benchmarkJSON, parent, change)
	if err != nil {
		t.Fatal(err)
	}
	if !regressed {
		t.Errorf("a 50%% slowdown on md5-wide was not reported as a regression:\n%s", out.String())
	}
	for _, line := range strings.Split(strings.TrimSpace(out.String()), "\n")[1:] {
		wantVerdict := want[strings.Fields(line)[0]]
		if !strings.Contains(line, wantVerdict) {
			t.Errorf("want %q in %q", wantVerdict, line)
		}
	}
}
