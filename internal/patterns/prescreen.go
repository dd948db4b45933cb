package patterns

// Structural prescreen: the one home of the paper's per-kind structural
// rules (map 2b–2d, linear reduction 3b–3f, tiled reduction 4a–4e, and the
// tree extension's shape), written once in verdicts and fed by two
// censuses of the same facts. Telegin et al. (PAPERS.md) show cheap
// graph-label censuses answer parallelizability questions without search.
//
//   - Census counts them at node level in one pass over the overlay,
//     before any view is built, as a sum of per-member contributions, and
//     Census.Without derives the census of a subset from the members that
//     leave and their neighbours. For a node view that census is exact;
//     for a compacted loop view the groups are unknown, so only the size,
//     op and boundary rules that hold under any grouping apply.
//   - View.build counts them at group level from the adjacency it derives
//     anyway. That census is exact, and View.CannotMatch — every matcher's
//     first statement — is the matchers' only structural gate.
//
// A CannotMatch verdict is therefore sound by construction (the matcher
// would return nil at its gate) and never suppresses a matcher run past
// that gate, which keeps outputs, including the per-kind matcher-run
// accounting, identical with the prescreen on or off. The node-level
// payoff is one O(nodes + arcs) pass instead of the grouping build (maps
// and sorts for compacted loop views) and the label construction. When the
// finder is given a view cache (Options.Cache), a sub-DDG whose outcome is
// stored there runs no census at all.

import (
	"slices"

	"discovery/internal/ddg"
	"discovery/internal/mir"
)

// Prescreen is the structural census of one view, with per-kind
// CannotMatch verdicts derived from it. A Census (Census.Prescreen) counts
// nodes; a view's own census (View.build) counts groups, and "member"
// below then reads "group". A nil *Prescreen is valid and means "not
// screened" (every kind Maybe).
type Prescreen struct {
	// NumNodes and Arcs count the members and the distinct member-to-member
	// arcs (node level, parallel arcs deduplicated).
	NumNodes int
	Arcs     int
	// ExtIn and ExtOut count members with at least one external
	// predecessor / successor (the boundary census).
	ExtIn, ExtOut int
	// MaxIn/MaxOut are the largest in-view node degrees; Sources and Sinks
	// count in-view degree-zero members; Junctions counts members with
	// in-view in-degree exactly two (the tiled reduction's final-chain
	// joins). For a node view the two censuses agree field for field.
	MaxIn, MaxOut  int
	Sources, Sinks int
	Junctions      int
	// Isolated counts members with neither an external nor an in-view
	// predecessor (a linear reduction's (3e) violation).
	Isolated int
	// AllAssocOneOp reports that every member is one node of one common
	// associative operation — necessary for every reduction kind under the
	// paper's 3b under-approximation.
	AllAssocOneOp bool
	// InterGroup reports an arc between members of different groups. For
	// compacted loop views this is the loop-carried dependence bit (an arc
	// crossing (invocation, iteration) classes); it refutes the map kinds'
	// component-independence constraint (2b) without building the grouping.
	InterGroup bool
	// CompactedLoop marks a node-level census of a compacted loop view,
	// where groups are unknown and only the grouping-insensitive rules
	// apply.
	CompactedLoop bool

	cannot uint32
}

// prescreenBit maps a pattern kind to its verdict bit; kinds the prescreen
// does not reason about get no bit and are always Maybe.
func prescreenBit(k Kind) uint32 {
	switch k {
	case KindMap, KindConditionalMap:
		return 1
	case KindLinearReduction:
		return 2
	case KindTiledReduction:
		return 4
	case KindTreeReduction:
		return 8
	}
	return 0
}

// CannotMatch reports that the census proves the view cannot match kind:
// the kind's matcher is guaranteed to return nil, and would have decided so
// at its gate. False means Maybe, never "match".
func (p *Prescreen) CannotMatch(k Kind) bool {
	if p == nil {
		return false
	}
	return p.cannot&prescreenBit(k) != 0
}

// PrescreenSub runs the census for the view of a node set under the
// grouping provenance loop (zero = node-per-node), in one pass over sub,
// the set's overlay on g (g.Overlay(nodes)), and derives its verdicts.
// Cost is O(members + member arcs); nothing of the grouping, labels, or
// reachability structure is built.
func PrescreenSub(g ddg.GraphView, sub *ddg.SubView, loop mir.LoopID) *Prescreen {
	return NewCensus(g, sub, loop).Prescreen()
}

// Census is the node-level census of one member set under a grouping
// provenance: the sum, over its members, of each member's contribution —
// its boundary flags, its distinct in- and out-degree within the set, its
// op, and (for a compacted loop view) the member arcs it sends across
// iteration ordinals — with histograms of the degrees and ops, so that
// the maxima and the one-op flag stay exact when members leave. A
// member's contribution depends on the set only through which of its
// neighbours are members, so Without derives the census of a subset from
// the members that leave and their neighbours alone. It reads the member
// mask (ddg.SubView) the finder keeps per sub-DDG and hands to the view
// (View.SetOverlay).
type Census struct {
	loop mir.LoopID

	// The member, arc, source, sink and junction counts are read off the
	// degree histograms: members per distinct in-/out-degree.
	inDeg, outDeg                     []int32
	ops                               []opCount
	extIn, extOut, isolated, crossing int

	reads int // adjacency entries read to derive the census

	// Most members have small degrees and most sets few ops: a fresh
	// census's histograms start in these, allocated with it.
	degBuf [8]int32
	opsBuf [2]opCount
}

// opCount is the number of members of one op.
type opCount struct {
	op mir.Op
	n  int32
}

// members is the membership test of a census: the members of in, less
// those of out when out is set.
type members struct{ in, out *ddg.SubView }

func (m members) has(u ddg.NodeID) bool {
	return m.in.Contains(u) && (m.out == nil || !m.out.Contains(u))
}

// NewCensus counts the census of sub's members, the view of its node set
// under loop, in one pass over the members' adjacency.
func NewCensus(g ddg.GraphView, sub *ddg.SubView, loop mir.LoopID) *Census {
	return newCensus(g, sub, loop, sub.Nodes())
}

// censusChunk is the member count of one chunk of a census counted in
// chunks (NewCensusChunk); a variable so that tests can make it small.
var censusChunk = 1 << 15

// CensusChunks returns the number of chunks NewCensusChunk cuts a set of
// n members into: one for a set that fits in one chunk.
func CensusChunks(n int) int {
	return max(1, (n+censusChunk-1)/censusChunk)
}

// NewCensusChunk counts the contributions of chunk i of sub's members, in
// member order, under the membership of all of sub. A census is a sum of
// per-member contributions, so SumCensus of every chunk's census equals
// NewCensus field by field; the chunks can be counted concurrently.
func NewCensusChunk(g ddg.GraphView, sub *ddg.SubView, loop mir.LoopID, i int) *Census {
	nodes := sub.Nodes()
	return newCensus(g, sub, loop, nodes[min(i*censusChunk, len(nodes)):min((i+1)*censusChunk, len(nodes))])
}

// newCensus counts the contributions of us, members of sub, under sub's
// membership.
func newCensus(g ddg.GraphView, sub *ddg.SubView, loop mir.LoopID, us []ddg.NodeID) *Census {
	c := &Census{loop: loop}
	c.inDeg, c.outDeg, c.ops = c.degBuf[0:4:4], c.degBuf[4:8:8], c.opsBuf[:0:2]
	t := c.tally(g, members{in: sub})
	var buf [8]ddg.NodeID
	scratch := buf[:0]
	for _, u := range us {
		scratch = c.count(&t, u, 1, scratch)
	}
	return c
}

// SumCensus returns the sum of the censuses of a member set's chunks, in
// chunk order, all under one grouping: each count, histogram bin and read
// total added, and the ops in the order they first appear, as one census
// over the chunks' members in turn lists them.
func SumCensus(chunks []*Census) *Census {
	c := &Census{}
	c.inDeg, c.outDeg, c.ops = c.degBuf[0:4:4], c.degBuf[4:8:8], c.opsBuf[:0:2]
	for _, d := range chunks {
		c.loop = d.loop
		c.extIn += d.extIn
		c.extOut += d.extOut
		c.isolated += d.isolated
		c.crossing += d.crossing
		c.reads += d.reads
		c.inDeg = addHist(c.inDeg, d.inDeg)
		c.outDeg = addHist(c.outDeg, d.outDeg)
	ops:
		for _, e := range d.ops {
			for i := range c.ops {
				if c.ops[i].op == e.op {
					c.ops[i].n += e.n
					continue ops
				}
			}
			c.ops = append(c.ops, e)
		}
	}
	return c
}

// addHist returns hist with add's bins added, extended to add's length.
func addHist(hist, add []int32) []int32 {
	if len(add) > len(hist) {
		hist = append(hist, make([]int32, len(add)-len(hist))...)
	}
	for k, m := range add {
		hist[k] += m
	}
	return hist
}

// Without derives, from c, the census of sub's members, the census of
// sub \ removed under the same grouping, exactly, field by field. It
// subtracts the contributions of R = sub ∩ removed and of N, the
// survivors adjacent to R, and adds N's contributions back over the
// survivors: every other member keeps its neighbours, and so its
// contribution. The cost is O(adjacency of R and N), against a fresh
// census's O(adjacency of sub \ removed); the finder uses it where R is
// the smaller side. Both overlays must be of g.
func (c *Census) Without(g ddg.GraphView, sub, removed *ddg.SubView) *Census {
	d := *c
	d.inDeg = append(d.degBuf[0:0:4], c.inDeg...)
	d.outDeg = append(d.degBuf[4:4:8], c.outDeg...)
	d.ops = append(d.opsBuf[:0:2], c.ops...)
	d.reads = 0
	before, after := d.tally(g, members{in: sub}), d.tally(g, members{in: sub, out: removed})
	var scratch, near []ddg.NodeID
	for _, u := range sub.Intersect(removed) {
		scratch = d.count(&before, u, -1, scratch)
		// These are the lists count just read, so Reads counts them once.
		for _, w := range g.Preds(u) {
			if after.m.has(w) {
				near = append(near, w)
			}
		}
		for _, w := range g.Succs(u) {
			if after.m.has(w) {
				near = append(near, w)
			}
		}
	}
	slices.Sort(near)
	for _, w := range slices.Compact(near) {
		scratch = d.count(&before, w, -1, scratch)
		scratch = d.count(&after, w, 1, scratch)
	}
	return &d
}

// tally is the state of one census pass: the graph, the membership test
// it counts under, and the iteration index a compacted loop view groups
// by (equal ordinals are equal (invocation, iteration) keys).
type tally struct {
	g     ddg.GraphView
	m     members
	iters *ddg.LoopIterIndex
}

func (c *Census) tally(g ddg.GraphView, m members) tally {
	t := tally{g: g, m: m}
	if c.loop != 0 {
		t.iters = g.LoopIterIndex(c.loop)
	}
	return t
}

// count adds sign times member u's contribution under t's membership to
// the census, listing u's distinct member successors in scratch, which it
// returns for reuse.
func (c *Census) count(t *tally, u ddg.NodeID, sign int32, scratch []ddg.NodeID) []ddg.NodeID {
	preds, succs := t.g.Preds(u), t.g.Succs(u)
	c.reads += len(preds) + len(succs)
	// In-degree counts distinct member predecessors, as the view's
	// deduplicated group arcs do; a two-operand use lists its predecessor
	// twice.
	extIn, in := false, 0
	for k, w := range preds {
		if !t.m.has(w) {
			extIn = true
		} else if !slices.Contains(preds[:k], w) {
			in++
		}
	}
	// Distinct member successors, likewise.
	out := scratch[:0]
	extOut := false
	for _, w := range succs {
		if !t.m.has(w) {
			extOut = true
		} else if !slices.Contains(out, w) {
			out = append(out, w)
		}
	}
	// A compacted loop view's arc crosses groups when its ends' ordinals
	// differ, or either end ran outside the loop.
	n := int(sign)
	if c.loop != 0 && len(out) > 0 {
		ou, oku := t.iters.OrdinalOf(u)
		for _, w := range out {
			if ow, okw := t.iters.OrdinalOf(w); !oku || !okw || ou != ow {
				c.crossing += n
			}
		}
	}
	if extIn {
		c.extIn += n
	} else if in == 0 {
		c.isolated += n
	}
	if extOut {
		c.extOut += n
	}
	if in < len(c.inDeg) {
		c.inDeg[in] += sign
	} else {
		c.inDeg = grow(c.inDeg, in, sign)
	}
	if len(out) < len(c.outDeg) {
		c.outDeg[len(out)] += sign
	} else {
		c.outDeg = grow(c.outDeg, len(out), sign)
	}
	op := t.g.Op(u)
	for i := range c.ops {
		if c.ops[i].op == op {
			c.ops[i].n += sign
			return out
		}
	}
	c.ops = append(c.ops, opCount{op: op, n: sign})
	return out
}

// grow returns hist extended to hold k, with hist[k] set to sign.
func grow(hist []int32, k int, sign int32) []int32 {
	hist = append(hist, make([]int32, k+1-len(hist))...)
	hist[k] = sign
	return hist
}

// top returns the largest k with hist[k] > 0, or 0.
func top(hist []int32) int {
	for k := len(hist) - 1; k > 0; k-- {
		if hist[k] > 0 {
			return k
		}
	}
	return 0
}

// at returns hist[k], zero past its end.
func at(hist []int32, k int) int {
	if k < len(hist) {
		return int(hist[k])
	}
	return 0
}

// Reads returns the adjacency entries read to derive the census: every
// member's predecessors and successors for a fresh one, those of the
// leaving members and, twice, of their surviving neighbours for one
// derived by Without.
func (c *Census) Reads() int { return c.reads }

// Prescreen returns the census's per-kind verdicts.
func (c *Census) Prescreen() *Prescreen {
	p := &Prescreen{
		ExtIn: c.extIn, ExtOut: c.extOut,
		MaxIn: top(c.inDeg), MaxOut: top(c.outDeg),
		Sources: at(c.inDeg, 0), Sinks: at(c.outDeg, 0), Junctions: at(c.inDeg, 2),
		Isolated:      c.isolated,
		InterGroup:    c.crossing > 0,
		CompactedLoop: c.loop != 0,
	}
	for k, m := range c.outDeg { // every member, by its distinct out-arcs
		p.NumNodes += int(m)
		p.Arcs += k * int(m)
	}
	// Every member is one node of one common associative op when at most
	// one op has members, and it is associative.
	held, op := 0, mir.Op(0)
	for _, e := range c.ops {
		if e.n > 0 {
			held, op = held+1, e.op
		}
	}
	p.AllAssocOneOp = held == 0 || held == 1 && op.Associative()
	if !p.CompactedLoop {
		p.InterGroup = p.Arcs > 0 // node-per-node: any member arc crosses groups
	}
	p.verdicts()
	return p
}

// verdicts derives the per-kind CannotMatch bits from the census. A rule
// that fires proves the kind's matcher returns nil at its gate.
//
//   - An exact census (node view, or any view's group-level census) gets
//     the full rule set.
//   - A node-level census of a compacted loop view gets the rules that
//     hold under any grouping: node-count lower bounds (groups never
//     outnumber nodes), 3b (a multi-node group is no single op), a
//     loop-carried arc refuting map independence 2b, and no external
//     input or output anywhere refuting map 2c/2d and linear 3e.
func (p *Prescreen) verdicts() {
	p.cannot = shapeVerdicts(p.NumNodes, !p.CompactedLoop, p.AllAssocOneOp)
	if p.CompactedLoop {
		p.cannot |= bitIf(KindMap, p.InterGroup || p.ExtIn == 0 || p.ExtOut == 0) |
			bitIf(KindLinearReduction, p.ExtIn == 0)
		return
	}
	n, m := p.NumNodes, p.Junctions+1 // m: the tiled final chain's length
	p.cannot |= bitIf(KindMap, p.Arcs > 0 || p.ExtIn < n || p.ExtOut == 0) |
		bitIf(KindLinearReduction, p.Isolated > 0 || p.MaxOut > 1 || p.MaxIn > 1 ||
			p.Arcs != n-1 || p.Sources != 1) |
		bitIf(KindTiledReduction, p.MaxIn > 2 || p.Sinks != 1 || m < 2 || (n-m)%m != 0) |
		bitIf(KindTreeReduction, p.MaxOut > 1 || p.Sinks != 1 || p.Arcs != n-1)
}

// shapeVerdicts holds the rules that need only the group count n and
// whether every group is one node of one common associative operation (the
// paper's 3b under-approximation), so a view decides them before building
// its adjacency. When n is a node count rather than an exact group count
// (exact false), only its lower bounds apply.
func shapeVerdicts(n int, exact, oneAssocOp bool) uint32 {
	return bitIf(KindMap, n < 2) |
		bitIf(KindLinearReduction, n < 2 || !oneAssocOp) |
		bitIf(KindTiledReduction, n < 4 || exact && n > 4096 || !oneAssocOp) |
		bitIf(KindTreeReduction, n < 3 || !oneAssocOp)
}

// bitIf returns kind's verdict bit when the rule refutes it.
func bitIf(k Kind, refuted bool) uint32 {
	if refuted {
		return prescreenBit(k)
	}
	return 0
}
