package report

// Golden-output regression corpus: the canonical text and JSON reports of
// a default Find over every Starbench benchmark × version, checked in
// under testdata/golden/. The finder is deterministic for fixed options
// (node ids, iteration order, and pattern sets are reproducible; the
// cross-mode equivalence suite relies on the same property), so the
// reports must match byte-for-byte — any diff is a behavior change that
// needs either a fix or a deliberate `go test ./internal/report -update`
// with the diff reviewed like code.
//
// The one nondeterministic ingredient, solver wall time, leaks into the
// JSON through diagnostics "elapsed_ms"; it is normalized to 0 on both
// sides of the comparison.

import (
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"testing"

	"discovery/internal/core"
	"discovery/internal/sched"
	"discovery/internal/starbench"
)

var update = flag.Bool("update", false, "rewrite the golden report corpus")

// elapsedRE matches the solver-stats wall-time field, the only timing
// value in the JSON export.
var elapsedRE = regexp.MustCompile(`"elapsed_ms": \d+`)

func normalizeJSON(data []byte) []byte {
	return elapsedRE.ReplaceAll(data, []byte(`"elapsed_ms": 0`))
}

func TestGoldenReports(t *testing.T) {
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(b.Name+"/"+string(v), func(t *testing.T) {
				res, err := starbench.Evaluate(b, v, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				text := []byte(Text(res.Built.Prog, res.Finder))
				jsonData, err := JSON(res.Finder)
				if err != nil {
					t.Fatal(err)
				}
				jsonData = append(normalizeJSON(jsonData), '\n')

				base := fmt.Sprintf("%s_%s", b.Name, v)
				checkGolden(t, base+".txt", text)
				checkGolden(t, base+".json", jsonData)
			})
		}
	}
}

// TestGoldenReportsAcrossPools: the report does not depend on how many
// executors ran the finder's sweeps. Find on every golden-corpus program
// gives the golden JSON byte for byte on pools of 0, 1 and 3 workers.
func TestGoldenReportsAcrossPools(t *testing.T) {
	if *update {
		t.Skip("the corpus is rewritten by TestGoldenReports")
	}
	for _, workers := range []int{0, 1, 3} {
		pool := sched.NewPool(workers, nil)
		defer pool.Close()
		for _, b := range starbench.All() {
			for _, v := range starbench.Versions() {
				t.Run(fmt.Sprintf("workers=%d/%s/%s", workers, b.Name, v), func(t *testing.T) {
					res, err := starbench.Evaluate(b, v, core.Options{Scheduler: pool})
					if err != nil {
						t.Fatal(err)
					}
					got, err := JSON(res.Finder)
					if err != nil {
						t.Fatal(err)
					}
					got = append(normalizeJSON(got), '\n')
					want, err := os.ReadFile(filepath.Join("testdata", "golden", fmt.Sprintf("%s_%s.json", b.Name, v)))
					if err != nil {
						t.Fatal(err)
					}
					if string(got) != string(want) {
						t.Errorf("JSON report on %d workers differs from the golden file: %s",
							workers, firstDiff(got, want))
					}
				})
			}
		}
	}
}

func checkGolden(t *testing.T, name string, got []byte) {
	t.Helper()
	path := filepath.Join("testdata", "golden", name)
	if *update {
		if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, got, 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(path)
	if err != nil {
		t.Fatalf("missing golden file (run `go test ./internal/report -update`): %v", err)
	}
	if string(got) != string(want) {
		t.Errorf("%s: output differs from golden file; diff the report, then "+
			"`go test ./internal/report -update` if the change is intended\n"+
			"got %d bytes, want %d bytes\nfirst divergence: %s",
			name, len(got), len(want), firstDiff(got, want))
	}
}

// firstDiff locates the first differing byte and returns a short excerpt
// of both sides around it.
func firstDiff(got, want []byte) string {
	i := 0
	for i < len(got) && i < len(want) && got[i] == want[i] {
		i++
	}
	excerpt := func(b []byte) string {
		lo, hi := i-40, i+40
		if lo < 0 {
			lo = 0
		}
		if hi > len(b) {
			hi = len(b)
		}
		return fmt.Sprintf("%q", b[lo:hi])
	}
	return fmt.Sprintf("byte %d\n  got:  %s\n  want: %s", i, excerpt(got), excerpt(want))
}
