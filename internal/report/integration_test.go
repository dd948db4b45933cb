package report

// Integration: generate the Figure 6-style report for every Starbench
// benchmark and version, and check that the final patterns annotate real
// listing lines — including at least one line inside each found expected
// pattern's anchor loop.

import (
	"strings"
	"testing"

	"discovery/internal/core"
	"discovery/internal/ddg"
	"discovery/internal/starbench"
)

func TestReportsForWholeSuite(t *testing.T) {
	for _, b := range starbench.All() {
		for _, v := range starbench.Versions() {
			b, v := b, v
			t.Run(b.Name+"/"+string(v), func(t *testing.T) {
				res, err := starbench.Evaluate(b, v, core.Options{})
				if err != nil {
					t.Fatal(err)
				}
				prog := res.Built.Prog
				ann := Annotations(res.Finder.Graph, res.Finder.Patterns)

				// Every annotation points at an existing listing line.
				for file, lines := range ann {
					listing := prog.Listing(file)
					if len(listing) == 0 {
						t.Errorf("annotations for unknown file %q", file)
						continue
					}
					for line := range lines {
						if line < 1 || line > len(listing) {
							t.Errorf("annotation outside listing: %s:%d", file, line)
						}
					}
				}

				// The text and HTML reports render without missing parts.
				text := Text(prog, res.Finder)
				html := HTML(prog, res.Finder)
				for _, file := range prog.Files() {
					if !strings.Contains(text, "==== "+file) {
						t.Errorf("text report missing file %s", file)
					}
					if !strings.Contains(html, file) {
						t.Errorf("html report missing file %s", file)
					}
				}

				// Each found expected pattern's anchor loop carries
				// annotations in the final report, possibly under the
				// compound pattern that subsumed it (the paper's reports
				// point users at exactly these locations).
				if len(res.Finder.Patterns) > 0 && len(ann) == 0 {
					t.Error("patterns found but nothing annotated")
				}
				g := res.Finder.Graph
				for _, er := range res.Expectations {
					if !er.Found || er.Missed {
						continue
					}
					for _, anchor := range er.Anchors {
						loop := res.Built.Anchors[anchor]
						annotated := false
						for i := 0; i < g.NumNodes() && !annotated; i++ {
							u := g.ScopeOf(ddgNode(i))
							if u == nil || !u.Contains(loop) {
								continue
							}
							pos := g.Pos(ddgNode(i))
							if len(ann[pos.File][pos.Line]) > 0 {
								annotated = true
							}
						}
						if !annotated {
							t.Errorf("found %s at anchor %s has no annotated line", er.Label, anchor)
						}
					}
				}
			})
		}
	}
}

// ddgNode converts a loop index to a node id.
func ddgNode(i int) ddg.NodeID { return ddg.NodeID(i) }
