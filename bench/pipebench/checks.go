package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"regexp"

	"discovery/internal/patterns"
	"discovery/internal/starbench"
)

// Table 3 of the paper: of the 42 expected patterns over the suite, 36 are
// found and the 6 documented misses stay missed.
const (
	table3Found  = 36
	table3Missed = 6
)

// elapsedRE matches the solver wall-time field, the one timing value in a
// report.JSON document; it is zeroed before comparing reports.
var elapsedRE = regexp.MustCompile(`"elapsed_ms": \d+`)

func normalizeElapsed(doc []byte) string {
	return elapsedRE.ReplaceAllString(string(doc), `"elapsed_ms": 0`)
}

// goldenReport is a program's committed reference report.
type goldenReport struct{ text, json string }

// loadGolden reads the golden text and JSON reports of every suite program.
func loadGolden(root string, progs []*program) (map[*program]goldenReport, error) {
	out := map[*program]goldenReport{}
	for _, p := range progs {
		base := filepath.Join(root, "internal", "report", "testdata", "golden", fmt.Sprintf("%s_%s", p.bench.Name, p.version))
		text, err := os.ReadFile(base + ".txt")
		if err != nil {
			return nil, fmt.Errorf("reading golden report: %w", err)
		}
		js, err := os.ReadFile(base + ".json")
		if err != nil {
			return nil, fmt.Errorf("reading golden report: %w", err)
		}
		out[p] = goldenReport{text: string(text), json: string(js)}
	}
	return out, nil
}

// suiteCheck compares every report with the golden corpus byte for byte
// and tallies Table 3 over each pass.
type suiteCheck struct {
	golden                  map[*program]goldenReport
	found, expected         int
	missedFound, missedSeen int
}

func (c *suiteCheck) check(a *analysis, o *outcome) {
	g := c.golden[a.prog]
	if a.text != g.text {
		o.problem("%s: text report differs from the golden file", a.prog.name())
	}
	if normalizeElapsed(a.json)+"\n" != g.json {
		o.problem("%s: JSON report differs from the golden file", a.prog.name())
	}
	for _, e := range a.prog.bench.Expected(a.prog.version) {
		hit := found(a, e)
		switch {
		case e.Missed:
			c.missedSeen++
			if hit {
				c.missedFound++
			}
		default:
			c.expected++
			if hit {
				c.found++
			}
		}
	}
}

func (c *suiteCheck) endPass(o *outcome) {
	if c.found != table3Found || c.expected != table3Found || c.missedSeen != table3Missed || c.missedFound != 0 {
		o.problem("Table 3: found %d of %d expected patterns and %d of %d documented misses; want %d of %d and 0 of %d",
			c.found, c.expected, c.missedFound, c.missedSeen, table3Found, table3Found, table3Missed)
	}
	c.found, c.expected, c.missedFound, c.missedSeen = 0, 0, 0, 0
}

// found reports whether any match of the run satisfies a Table 3
// expectation.
func found(a *analysis, e starbench.Expectation) bool {
	for _, m := range a.res.Matches {
		if meetsExpectation(a, m.Pattern, e) {
			return true
		}
	}
	return false
}

// meetsExpectation reports whether a pattern satisfies a Table 3
// expectation: a kind the label admits for this version, with nodes
// executed inside every anchor loop.
func meetsExpectation(a *analysis, p *patterns.Pattern, e starbench.Expectation) bool {
	kindOK := false
	for _, k := range starbench.KindsFor(e.Label, a.prog.version) {
		kindOK = kindOK || p.Kind == k
	}
	if !kindOK {
		return false
	}
	for _, name := range e.Anchors {
		loop, ok := a.built.Anchors[name]
		if !ok {
			return false
		}
		touches := false
		for _, u := range p.Nodes() {
			if s := a.res.Graph.ScopeOf(u); s != nil && s.Contains(loop) {
				touches = true
				break
			}
		}
		if !touches {
			return false
		}
	}
	return true
}

// selfCheck is the reference check for inputs without a golden report:
// every run's report equals the first run's, every reported pattern
// passes patterns.Verify against the unrelaxed definitions, and the
// patterns Table 3 expects of the benchmark, which do not depend on the
// input size, are found.
type selfCheck struct {
	text, json string
}

func (c *selfCheck) check(a *analysis, o *outcome) {
	js := normalizeElapsed(a.json)
	switch {
	case c.json == "":
		c.text, c.json = a.text, js
	case a.text != c.text || js != c.json:
		o.problem("%s: report differs from the first run's", a.prog.name())
	}
	for _, p := range a.res.Patterns {
		if err := patterns.Verify(a.res.Graph, p); err != nil {
			o.problem("%s: pattern fails verification: %v", a.prog.name(), err)
		}
	}
	for _, e := range a.prog.bench.Expected(a.prog.version) {
		if !e.Missed && !found(a, e) {
			o.problem("%s: Table 3 pattern %s over %v not found", a.prog.name(), e.Label, e.Anchors)
		}
	}
}

func (c *selfCheck) endPass(*outcome) {}

// canonicalReport renders a report.JSON document for comparison across
// cache and store states: the solver and cache effort accounting in its
// diagnostics depends on what the daemon's shared cache already held, so
// it is dropped; everything the analysis found is kept.
func canonicalReport(doc []byte) (string, error) {
	var m map[string]any
	if err := json.Unmarshal(doc, &m); err != nil {
		return "", err
	}
	if d, ok := m["diagnostics"].(map[string]any); ok {
		delete(d, "solver")
		delete(d, "cache")
	}
	out, err := json.Marshal(m)
	return string(out), err
}
