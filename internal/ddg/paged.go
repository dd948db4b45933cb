package ddg

// Out-of-core CSR paging. A frozen graph's arc arrays (succArr/predArr)
// dominate its memory for large traces; SpillArcs writes them to an
// unlinked temp file in node-aligned segments and replaces them with a
// pager that keeps a bounded set of segments resident. The per-node
// offset arrays stay in memory — they ARE the page table: Succs/Preds
// locate a node's segment by binary search over segment start nodes,
// fault the segment in if needed, and slice the resident buffer exactly
// as the in-core path slices the flat array. Everything above the
// GraphView surface (member masks, matchers, prescreen, invariant checks)
// runs unmodified and byte-identically: paging changes where bytes live,
// never which bytes a read returns.
//
// Residency policy: least-recently-used eviction under a byte budget,
// with the densest segments (most arcs per node — high-fan-out hubs such
// as an initial value feeding every iteration of a reduction) pinned up
// to a quarter of the budget, since hubs are touched by nearly every
// traversal. The faulting segment is always allowed in, so a budget
// smaller than one segment degrades to "one segment at a time" rather
// than deadlocking.
//
// Concurrency: a single mutex guards the segment tables; faults perform
// file I/O under it, serializing reads of one graph (matchers overlap
// work across graphs and groups, not raw adjacency reads of one node).
// Returned slices alias the resident buffer; eviction only drops the
// pager's reference, so a reader that raced an eviction keeps a live
// buffer via the garbage collector — stale data is impossible because
// segment contents are immutable.
//
// Lifecycle: the spill file is unlinked immediately after creation, so
// the kernel reclaims it when the last descriptor closes — a crashed
// process leaks nothing. CloseSpill releases the descriptor
// deterministically; a finalizer backstops graphs that are simply
// dropped (daemon cache eviction).

import (
	"encoding/binary"
	"os"
	"runtime"
	"sort"
	"sync"

	"discovery/internal/analysis"
)

// SpillConfig controls SpillArcs.
type SpillConfig struct {
	// Dir is the directory for the spill file; empty means os.TempDir().
	Dir string
	// Budget is the target resident-arc-byte bound. Zero or negative
	// disables spilling entirely (MaybeSpill becomes a no-op).
	Budget int64
	// SegmentBytes is the target segment size; 0 means a quarter of the
	// budget, at least 64 bytes and at most DefaultSegmentBytes. Segments
	// are node-aligned, so a single node whose arc list exceeds the
	// target still occupies one (oversized) segment.
	SegmentBytes int
}

// DefaultSegmentBytes is the largest segment size SpillConfig picks when
// it leaves SegmentBytes zero: the size of every budget of 256 KiB or
// more.
const DefaultSegmentBytes = 64 << 10

// segmentBytes returns the target segment size. A default segment is a
// quarter of the budget, so that the segments of both arc tables that an
// alternating Succs/Preds walk reads fit under it together; a segment as
// large as the budget would evict the other table's on every switch.
func (cfg SpillConfig) segmentBytes() int {
	if cfg.SegmentBytes > 0 {
		return cfg.SegmentBytes
	}
	return int(min(DefaultSegmentBytes, max(cfg.Budget/4, 64)))
}

// PageStats is a snapshot of a spilled graph's paging activity.
type PageStats struct {
	Segments          int   // total segments across both arc tables
	SpilledBytes      int64 // bytes written to the spill file
	Faults            int64 // segment loads from the spill file
	Evictions         int64 // segments dropped to stay under budget
	Reads             int64 // Succs/Preds calls answered through the pager
	ResidentBytes     int64 // arc bytes currently in memory (incl. pinned)
	PeakResidentBytes int64 // high-water mark of ResidentBytes
	PinnedBytes       int64 // bytes held by pinned hot segments
}

// arcSeg is one node-aligned segment of an arc array.
type arcSeg struct {
	fileOff int64  // byte offset of the segment in the spill file
	arcBase uint32 // arc index of the segment's first arc
	arcs    uint32 // arc count
	buf     []NodeID
	lastUse uint64
	pinned  bool
}

// arcTable pages one CSR arc array (succ or pred). startNode has one
// entry per segment plus a sentinel: segment s covers nodes
// [startNode[s], startNode[s+1]).
type arcTable struct {
	off       []uint32 // the graph's resident offset array (shared)
	startNode []uint32
	segs      []arcSeg
}

// segOf returns the segment containing node u's arc list.
func (t *arcTable) segOf(u NodeID) int {
	return sort.Search(len(t.segs), func(s int) bool { return t.startNode[s+1] > uint32(u) })
}

// arcPager owns the spill file and both arc tables.
type arcPager struct {
	mu     sync.Mutex
	file   *os.File
	closed bool
	succ   arcTable
	pred   arcTable

	budget   int64
	clock    uint64
	resident int64
	stats    PageStats
}

// MaybeSpill spills the graph's arc arrays out of core when they exceed
// cfg.Budget, returning whether it did. A zero budget, an already-spilled
// graph, or arc arrays already under budget leave the
// graph untouched.
func (g *Graph) MaybeSpill(cfg SpillConfig) (bool, error) {
	if cfg.Budget <= 0 || g.pager != nil {
		return false, nil
	}
	if int64(len(g.succArr)+len(g.predArr))*4 <= cfg.Budget {
		return false, nil
	}
	if err := g.SpillArcs(cfg); err != nil {
		return false, err
	}
	return true, nil
}

// SpillArcs unconditionally moves the frozen graph's arc arrays into an
// unlinked spill file and installs the pager. The graph must not already
// be spilled.
func (g *Graph) SpillArcs(cfg SpillConfig) error {
	if g.pager != nil {
		return analysis.Errorf(analysis.StageFinalize, analysis.InvalidInput,
			"ddg: SpillArcs on an already-spilled graph")
	}
	segBytes := cfg.segmentBytes()
	f, err := os.CreateTemp(cfg.Dir, "ddg-spill-*")
	if err != nil {
		return analysis.Errorf(analysis.StageFinalize, analysis.Transient,
			"ddg: creating spill file: %v", err)
	}
	// Unlink immediately: the kernel keeps the data reachable through the
	// open descriptor and reclaims it on close, even after a crash.
	os.Remove(f.Name())

	p := &arcPager{file: f, budget: cfg.Budget}
	written := int64(0)
	spillTable := func(t *arcTable, off []uint32, arr []NodeID) error {
		t.off = off
		t.startNode = append(t.startNode, 0)
		n := len(off) - 1
		enc := make([]byte, 0, segBytes)
		flush := func(endNode int, arcBase uint32) error {
			arcs := off[endNode] - arcBase
			t.segs = append(t.segs, arcSeg{fileOff: written, arcBase: arcBase, arcs: arcs})
			t.startNode = append(t.startNode, uint32(endNode))
			enc = enc[:0]
			for _, v := range arr[arcBase:off[endNode]] {
				enc = binary.LittleEndian.AppendUint32(enc, uint32(v))
			}
			if _, err := f.WriteAt(enc, written); err != nil {
				return analysis.Errorf(analysis.StageFinalize, analysis.Transient,
					"ddg: writing spill file: %v", err)
			}
			written += int64(len(enc))
			return nil
		}
		segStart := 0
		for u := 0; u < n; u++ {
			segArcBytes := int64(off[u+1]-off[segStart]) * 4
			if u > segStart && segArcBytes > int64(segBytes) {
				if err := flush(u, off[segStart]); err != nil {
					return err
				}
				segStart = u
			}
		}
		if n > segStart || (n == 0 && len(t.segs) == 0) {
			if err := flush(n, off[segStart]); err != nil {
				return err
			}
		}
		return nil
	}
	if err := spillTable(&p.succ, g.succOff, g.succArr); err != nil {
		f.Close()
		return err
	}
	if err := spillTable(&p.pred, g.predOff, g.predArr); err != nil {
		f.Close()
		return err
	}
	p.stats.Segments = len(p.succ.segs) + len(p.pred.segs)
	p.stats.SpilledBytes = written
	p.pinHot()
	g.succArr, g.predArr = nil, nil
	g.pager = p
	// Backstop for graphs dropped without CloseSpill (cache eviction): the
	// descriptor is the last reference to the unlinked file's storage.
	runtime.SetFinalizer(p, func(p *arcPager) { p.file.Close() })
	return nil
}

// pinHot marks the densest segments (most arc bytes per node) pinned, up
// to a quarter of the budget, and faults them in eagerly. Density is the
// cheap stand-in for heat: high-fan-out hubs appear in nearly every
// traversal, and they are exactly what makes a segment dense.
func (p *arcPager) pinHot() {
	type cand struct {
		t   *arcTable
		s   int
		den float64
	}
	var cands []cand
	for _, t := range []*arcTable{&p.succ, &p.pred} {
		for s := range t.segs {
			nodes := t.startNode[s+1] - t.startNode[s]
			if nodes == 0 {
				continue
			}
			cands = append(cands, cand{t, s, float64(t.segs[s].arcs) / float64(nodes)})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].den > cands[j].den })
	pinBudget := p.budget / 4
	for _, c := range cands {
		segBytes := int64(c.t.segs[c.s].arcs) * 4
		if p.stats.PinnedBytes+segBytes > pinBudget {
			break
		}
		if err := p.load(c.t, c.s); err != nil {
			break // pinning is an optimization; unpinned paging still works
		}
		c.t.segs[c.s].pinned = true
		p.stats.PinnedBytes += segBytes
	}
}

// load faults segment s of table t into memory (caller holds no lock
// during SpillArcs; at runtime the pager mutex is held).
func (p *arcPager) load(t *arcTable, s int) error {
	seg := &t.segs[s]
	if seg.buf != nil {
		return nil
	}
	raw := make([]byte, int(seg.arcs)*4)
	if _, err := p.file.ReadAt(raw, seg.fileOff); err != nil {
		return analysis.Errorf(analysis.StageFinalize, analysis.Transient,
			"ddg: reading spill segment: %v", err)
	}
	buf := make([]NodeID, seg.arcs)
	for i := range buf {
		buf[i] = NodeID(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	seg.buf = buf
	p.resident += int64(len(buf)) * 4
	p.stats.Faults++
	if p.resident > p.stats.PeakResidentBytes {
		p.stats.PeakResidentBytes = p.resident
	}
	return nil
}

// evict drops least-recently-used unpinned segments until the resident
// set fits the budget, never evicting the segment just faulted (keep).
func (p *arcPager) evict(keepT *arcTable, keepS int) {
	for p.resident > p.budget {
		var vt *arcTable
		vs := -1
		best := ^uint64(0)
		for _, t := range []*arcTable{&p.succ, &p.pred} {
			for s := range t.segs {
				seg := &t.segs[s]
				if seg.buf == nil || seg.pinned || (t == keepT && s == keepS) {
					continue
				}
				if seg.lastUse <= best {
					best = seg.lastUse
					vt, vs = t, s
				}
			}
		}
		if vs < 0 {
			return // nothing evictable: budget floor is the kept segment
		}
		seg := &vt.segs[vs]
		p.resident -= int64(len(seg.buf)) * 4
		seg.buf = nil
		p.stats.Evictions++
	}
}

// pagedSuccs and pagedPreds read one node's adjacency through the pager.
// They stay out of line so that Graph.Succs and Graph.Preds fit the
// inlining budget and a resident read costs no call.
//
//go:noinline
func (g *Graph) pagedSuccs(u NodeID) []NodeID { return g.pager.arcsOf(&g.pager.succ, u) }

//go:noinline
func (g *Graph) pagedPreds(u NodeID) []NodeID { return g.pager.arcsOf(&g.pager.pred, u) }

// arcsOf answers one adjacency read through the pager.
func (p *arcPager) arcsOf(t *arcTable, u NodeID) []NodeID {
	s := t.segOf(u)
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		panic("ddg: adjacency read on a graph whose spill was closed")
	}
	seg := &t.segs[s]
	if seg.buf == nil {
		if err := p.load(t, s); err != nil {
			p.mu.Unlock()
			panic(err) // unlinked-file read failure: the storage is gone
		}
		p.evict(t, s)
	}
	p.clock++
	seg.lastUse = p.clock
	p.stats.Reads++
	buf := seg.buf
	base := seg.arcBase
	p.mu.Unlock()
	return buf[t.off[u]-base : t.off[u+1]-base]
}

// tableArcs returns the total arc count of one spilled table (the sum of
// its segment arc counts) — the spilled analogue of len(succArr).
func (p *arcPager) tableArcs(t *arcTable) int {
	n := 0
	for s := range t.segs {
		n += int(t.segs[s].arcs)
	}
	return n
}

// Spilled reports whether the graph's arc arrays live out of core.
func (g *Graph) Spilled() bool { return g.pager != nil }

// PageStats returns a snapshot of paging activity; zero for graphs that
// never spilled.
func (g *Graph) PageStats() PageStats {
	if g.pager == nil {
		return PageStats{}
	}
	p := g.pager
	p.mu.Lock()
	st := p.stats
	st.ResidentBytes = p.resident
	p.mu.Unlock()
	return st
}

// CloseSpill releases the spill file descriptor. The graph's adjacency
// must not be read afterwards; callers close only when the graph is
// done (end of a request, cache eviction). Idempotent; a nil receiver
// or never-spilled graph is a no-op.
func (g *Graph) CloseSpill() error {
	if g == nil || g.pager == nil {
		return nil
	}
	p := g.pager
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		return nil
	}
	p.closed = true
	runtime.SetFinalizer(p, nil)
	return p.file.Close()
}
