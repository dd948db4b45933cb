package obs

// Exporters: the human-readable phase tree, the JSON document, and the
// Prometheus text format. All three read one consistent snapshot of the
// collector (Spans / registry copies), so they can run while the process
// is still working — open spans export with their duration so far.

import (
	"encoding/json"
	"fmt"
	"sort"
	"strings"
	"time"
)

// TreeNode is one span with its children, as assembled by Tree.
type TreeNode struct {
	Span     Span
	Children []*TreeNode
}

// Tree assembles the collector's spans into their forest: one root node
// per span with no (or unknown) parent, children in start order. Spans
// whose parent id was never recorded — a parent emitted into a different
// recorder, say — become roots rather than being dropped.
func Tree(c *Collector) []*TreeNode {
	spans := c.Spans()
	nodes := make(map[SpanID]*TreeNode, len(spans))
	for _, s := range spans {
		nodes[s.ID] = &TreeNode{Span: s}
	}
	var roots []*TreeNode
	for _, s := range spans { // Spans is in start order already
		n := nodes[s.ID]
		if p, ok := nodes[s.Parent]; ok && s.Parent != s.ID {
			p.Children = append(p.Children, n)
		} else {
			roots = append(roots, n)
		}
	}
	return roots
}

// RenderOptions configures RenderTree.
type RenderOptions struct {
	// MaxChildren caps the children rendered under one node; the rest are
	// folded into one "… N more" line carrying their summed wall time.
	// The cap keeps solve-heavy match phases readable (one span per solve
	// adds up). 0 means the default of 12; negative means unlimited.
	MaxChildren int
}

func (o RenderOptions) maxChildren() int {
	switch {
	case o.MaxChildren == 0:
		return 12
	case o.MaxChildren < 0:
		return 1 << 30
	default:
		return o.MaxChildren
	}
}

// RenderTree renders the collector's span forest as an indented tree:
// one line per span with wall time, CPU time (where the platform provides
// it), allocated bytes and attributes; failed spans carry a "!" marker,
// spans still open at render time an "(open)" marker. The wall time is
// always a line's second field (third after "!"), where pipebench's
// phase-tree parser reads it.
func RenderTree(c *Collector, opts RenderOptions) string {
	var sb strings.Builder
	for _, root := range Tree(c) {
		renderNode(&sb, root, "", "", opts)
	}
	return sb.String()
}

func renderNode(sb *strings.Builder, n *TreeNode, lead, childLead string, opts RenderOptions) {
	s := n.Span
	fmt.Fprintf(sb, "%s%s", lead, s.Name)
	if s.Failed {
		sb.WriteString(" !")
	}
	fmt.Fprintf(sb, "  %s", fmtDur(s.Wall))
	if s.CPU > 0 {
		fmt.Fprintf(sb, " (cpu %s)", fmtDur(s.CPU))
	}
	if s.Alloc > 0 {
		fmt.Fprintf(sb, " (alloc %s)", FormatBytes(s.Alloc))
	}
	if !s.Ended {
		sb.WriteString(" (open)")
	}
	for _, a := range s.Attrs {
		fmt.Fprintf(sb, " %s=%s", a.Key, a.Val)
	}
	sb.WriteByte('\n')

	kids := n.Children
	limit := opts.maxChildren()
	var folded []*TreeNode
	if len(kids) > limit {
		// Keep the slowest cap children (they answer "where did the time
		// go"), preserving start order among the kept.
		bySlow := append([]*TreeNode(nil), kids...)
		sort.SliceStable(bySlow, func(i, j int) bool {
			return bySlow[i].Span.Wall > bySlow[j].Span.Wall
		})
		keep := map[*TreeNode]bool{}
		for _, k := range bySlow[:limit] {
			keep[k] = true
		}
		var kept []*TreeNode
		for _, k := range kids {
			if keep[k] {
				kept = append(kept, k)
			} else {
				folded = append(folded, k)
			}
		}
		kids = kept
	}
	for i, child := range kids {
		last := i == len(kids)-1 && len(folded) == 0
		branch, indent := "├─ ", "│  "
		if last {
			branch, indent = "└─ ", "   "
		}
		renderNode(sb, child, childLead+branch, childLead+indent, opts)
	}
	if len(folded) > 0 {
		var wall time.Duration
		failed := 0
		for _, f := range folded {
			wall += f.Span.Wall
			if f.Span.Failed {
				failed++
			}
		}
		fmt.Fprintf(sb, "%s└─ … %d more span(s)  %s", childLead, len(folded), fmtDur(wall))
		if failed > 0 {
			fmt.Fprintf(sb, "  (%d failed)", failed)
		}
		sb.WriteByte('\n')
	}
}

// fmtDur renders a duration compactly (ms precision above 1s, µs
// precision above 1ms).
func fmtDur(d time.Duration) string {
	switch {
	case d >= time.Second:
		return d.Round(time.Millisecond).String()
	case d >= time.Millisecond:
		return d.Round(time.Microsecond).String()
	default:
		return d.String()
	}
}

// FormatBytes renders a byte count compactly: B below 1 KiB, then KB or
// MB (binary multiples) with one decimal.
func FormatBytes(n uint64) string {
	switch {
	case n >= 1<<20:
		return fmt.Sprintf("%.1fMB", float64(n)/(1<<20))
	case n >= 1<<10:
		return fmt.Sprintf("%.1fKB", float64(n)/(1<<10))
	default:
		return fmt.Sprintf("%dB", n)
	}
}

// SpanJSON is one span in the JSON export.
type SpanJSON struct {
	ID      uint64            `json:"id"`
	Parent  uint64            `json:"parent,omitempty"`
	Name    string            `json:"name"`
	StartUS int64             `json:"start_us"` // offset from the collector's epoch
	WallUS  int64             `json:"wall_us"`
	CPUUS   int64             `json:"cpu_us,omitempty"`
	Alloc   uint64            `json:"alloc_bytes,omitempty"`
	Ended   bool              `json:"ended"`
	Failed  bool              `json:"failed,omitempty"`
	Attrs   map[string]string `json:"attrs,omitempty"`
}

// HistogramJSON is one histogram in the JSON export.
type HistogramJSON struct {
	Bounds []float64 `json:"bounds"` // finite upper bounds; last bucket is +Inf
	Counts []uint64  `json:"counts"`
	Sum    float64   `json:"sum"`
	Count  uint64    `json:"count"`
}

// Document is the JSON export of one collector: the span forest
// (flattened, parent links preserved) and all metrics.
type Document struct {
	Spans      []SpanJSON               `json:"spans"`
	Counters   map[string]int64         `json:"counters,omitempty"`
	Gauges     map[string]float64       `json:"gauges,omitempty"`
	Histograms map[string]HistogramJSON `json:"histograms,omitempty"`
}

// JSON exports the collector as an indented JSON document.
func JSON(c *Collector) ([]byte, error) {
	doc := Document{Spans: []SpanJSON{}}
	epoch := c.Epoch()
	for _, s := range c.Spans() {
		sj := SpanJSON{
			ID:      uint64(s.ID),
			Parent:  uint64(s.Parent),
			Name:    s.Name,
			StartUS: s.Start.Sub(epoch).Microseconds(),
			WallUS:  s.Wall.Microseconds(),
			CPUUS:   s.CPU.Microseconds(),
			Alloc:   s.Alloc,
			Ended:   s.Ended,
			Failed:  s.Failed,
		}
		if len(s.Attrs) > 0 {
			sj.Attrs = map[string]string{}
			for _, a := range s.Attrs {
				sj.Attrs[a.Key] = a.Val
			}
		}
		doc.Spans = append(doc.Spans, sj)
	}
	reg := c.Metrics()
	if m := reg.Counters(); len(m) > 0 {
		doc.Counters = m
	}
	if m := reg.Gauges(); len(m) > 0 {
		doc.Gauges = m
	}
	if hs := reg.Histograms(); len(hs) > 0 {
		doc.Histograms = map[string]HistogramJSON{}
		bounds := HistogramBounds()
		for name, h := range hs {
			doc.Histograms[name] = HistogramJSON{
				Bounds: bounds, Counts: h.Counts, Sum: h.Sum, Count: h.Total,
			}
		}
	}
	return json.MarshalIndent(doc, "", "  ")
}

// Prometheus renders the registry in the Prometheus text exposition
// format: counters as "<family> counter", gauges as gauge, histograms as
// histogram with cumulative le buckets, _sum, and _count. Families are
// sorted, as are label sets within one family, so output is stable.
func Prometheus(reg *Registry) string {
	var sb strings.Builder

	type series struct{ key, labels string }
	group := func(keys []string) (families []string, byFamily map[string][]series) {
		byFamily = map[string][]series{}
		for _, key := range keys {
			fam, labels := splitName(key)
			byFamily[fam] = append(byFamily[fam], series{key, labels})
		}
		for fam := range byFamily {
			families = append(families, fam)
			ss := byFamily[fam]
			sort.Slice(ss, func(i, j int) bool { return ss[i].labels < ss[j].labels })
		}
		sort.Strings(families)
		return families, byFamily
	}
	keysOf := func(n int, iter func(add func(string))) []string {
		keys := make([]string, 0, n)
		iter(func(k string) { keys = append(keys, k) })
		sort.Strings(keys)
		return keys
	}

	counters := reg.Counters()
	fams, byFam := group(keysOf(len(counters), func(add func(string)) {
		for k := range counters {
			add(k)
		}
	}))
	for _, fam := range fams {
		fmt.Fprintf(&sb, "# TYPE %s counter\n", fam)
		for _, s := range byFam[fam] {
			fmt.Fprintf(&sb, "%s%s %d\n", fam, s.labels, counters[s.key])
		}
	}

	gauges := reg.Gauges()
	fams, byFam = group(keysOf(len(gauges), func(add func(string)) {
		for k := range gauges {
			add(k)
		}
	}))
	for _, fam := range fams {
		fmt.Fprintf(&sb, "# TYPE %s gauge\n", fam)
		for _, s := range byFam[fam] {
			fmt.Fprintf(&sb, "%s%s %s\n", fam, s.labels, fmtFloat(gauges[s.key]))
		}
	}

	hists := reg.Histograms()
	fams, byFam = group(keysOf(len(hists), func(add func(string)) {
		for k := range hists {
			add(k)
		}
	}))
	bounds := HistogramBounds()
	for _, fam := range fams {
		fmt.Fprintf(&sb, "# TYPE %s histogram\n", fam)
		for _, s := range byFam[fam] {
			h := hists[s.key]
			var cum uint64
			for i, b := range bounds {
				cum += h.Counts[i]
				fmt.Fprintf(&sb, "%s_bucket%s %d\n", fam, withLabel(s.labels, "le", fmtFloat(b)), cum)
			}
			cum += h.Counts[len(bounds)]
			fmt.Fprintf(&sb, "%s_bucket%s %d\n", fam, withLabel(s.labels, "le", "+Inf"), cum)
			fmt.Fprintf(&sb, "%s_sum%s %s\n", fam, s.labels, fmtFloat(h.Sum))
			fmt.Fprintf(&sb, "%s_count%s %d\n", fam, s.labels, h.Total)
		}
	}
	return sb.String()
}

// withLabel inserts one extra label into a rendered label block.
func withLabel(labels, key, val string) string {
	extra := key + `="` + escapeLabel(val) + `"`
	if labels == "" {
		return "{" + extra + "}"
	}
	// labels is "{...}"; splice before the closing brace.
	return labels[:len(labels)-1] + "," + extra + "}"
}

// fmtFloat renders a float for the exposition format (no exponent for
// integral values within range, shortest round-trip otherwise).
func fmtFloat(v float64) string {
	if v == float64(int64(v)) && v < 1e15 && v > -1e15 {
		return fmt.Sprintf("%d", int64(v))
	}
	return fmt.Sprintf("%g", v)
}
