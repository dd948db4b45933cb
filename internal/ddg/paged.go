package ddg

// Out-of-core CSR paging. A frozen graph's arc arrays (succArr/predArr)
// dominate its memory for large traces; SpillArcs writes them to an
// unlinked temp file in node-aligned segments and replaces them with a
// pager that keeps a bounded set of segments resident. The per-node
// offset arrays stay in memory — they ARE the page table: Succs/Preds
// find a node's segment through a bucket table (the first segment of
// each block of 2^k nodes, then a short forward step), fault the segment
// in if needed, and slice the resident buffer exactly as the in-core
// path slices the flat array. Everything above the GraphView surface
// (member masks, matchers, prescreen, invariant checks) runs unmodified
// and byte-identically: paging changes where bytes live, never which
// bytes a read returns.
//
// Residency policy: CLOCK (second-chance) eviction under a byte budget,
// with the densest segments (most arcs per node — high-fan-out hubs such
// as an initial value feeding every iteration of a reduction) pinned up
// to a quarter of the budget, since hubs are touched by nearly every
// traversal. A fault first evicts until the faulting segment fits, then
// loads it; the faulting segment is always allowed in, so a budget
// smaller than one segment degrades to "one segment at a time" rather
// than deadlocking, and resident bytes never exceed the budget plus the
// segment being faulted.
//
// Concurrency: a read of a resident segment takes no lock. It loads the
// segment's buffer pointer atomically and slices it, and writes shared
// memory only to set the segment's reference bit when the eviction hand
// has cleared it. Faults and evictions run under one mutex, which also
// serializes the file I/O. Returned slices alias the resident buffer;
// eviction only drops the pager's reference, so a reader that raced an
// eviction keeps a live buffer via the garbage collector — stale data is
// impossible because segment contents are immutable.
//
// Lifecycle: the spill file is unlinked immediately after creation, so
// the kernel reclaims it when the last descriptor closes — a crashed
// process leaks nothing. CloseSpill releases the descriptor and drops
// every segment buffer, so a later read takes the locked path and panics;
// a finalizer backstops graphs that are simply dropped (daemon cache
// eviction).

import (
	"encoding/binary"
	"os"
	"runtime"
	"slices"
	"sort"
	"sync"
	"sync/atomic"

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
	ResidentBytes     int64 // arc bytes currently in memory (incl. pinned)
	PeakResidentBytes int64 // high-water mark of ResidentBytes
	PinnedBytes       int64 // bytes held by pinned hot segments
}

// arcSeg is one node-aligned segment of an arc array. buf is nil while
// the segment is out of core; ref is its CLOCK reference bit.
type arcSeg struct {
	buf     atomic.Pointer[[]NodeID]
	fileOff int64  // byte offset of the segment in the spill file
	arcBase uint32 // arc index of the segment's first arc
	arcs    uint32 // arc count
	ref     atomic.Bool
	pinned  bool
}

// arcTable pages one CSR arc array (succ or pred). startNode has one
// entry per segment plus a sentinel: segment s covers nodes
// [startNode[s], startNode[s+1]). bucket[b] is the segment holding node
// b<<shift, the first node of bucket b.
type arcTable struct {
	off       []uint32 // the graph's resident offset array (shared)
	startNode []uint32
	segs      []arcSeg
	bucket    []uint32
	shift     uint
}

// segOf returns the segment containing node u's arc list: its bucket's
// segment, stepped forward past the segments that end at or before u.
func (t *arcTable) segOf(u NodeID) *arcSeg {
	s := t.bucket[uint32(u)>>t.shift]
	for t.startNode[s+1] <= uint32(u) {
		s++
	}
	return &t.segs[s]
}

// indexBuckets builds the bucket table. Buckets are the widest power of
// two no wider than the average segment, so there are at least as many
// buckets as segments and a lookup steps past about one boundary.
func (t *arcTable) indexBuckets() {
	n := len(t.off) - 1
	for n>>(t.shift+1) >= len(t.segs) {
		t.shift++
	}
	t.bucket = make([]uint32, (n+1<<t.shift-1)>>t.shift)
	s := uint32(0)
	for b := range t.bucket {
		for t.startNode[s+1] <= uint32(b<<t.shift) {
			s++
		}
		t.bucket[b] = s
	}
}

// arcPager owns the spill file and both arc tables. The tables are
// immutable once spilled, apart from each segment's atomic buffer and
// reference bit; mu guards every mutable field below it.
type arcPager struct {
	mu     sync.Mutex
	file   *os.File
	closed bool
	succ   arcTable
	pred   arcTable

	budget   int64
	resident int64
	// clock is the CLOCK ring of resident unpinned segments; hand is the
	// next one the eviction hand examines.
	clock []*arcSeg
	hand  int
	// raw is the fault read buffer, reused across faults.
	raw   []byte
	stats PageStats
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
		t.indexBuckets()
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
		seg *arcSeg
		den float64
	}
	var cands []cand
	for _, t := range []*arcTable{&p.succ, &p.pred} {
		for s := range t.segs {
			nodes := t.startNode[s+1] - t.startNode[s]
			if nodes == 0 {
				continue
			}
			cands = append(cands, cand{&t.segs[s], float64(t.segs[s].arcs) / float64(nodes)})
		}
	}
	sort.SliceStable(cands, func(i, j int) bool { return cands[i].den > cands[j].den })
	pinBudget := p.budget / 4
	for _, c := range cands {
		segBytes := int64(c.seg.arcs) * 4
		if p.stats.PinnedBytes+segBytes > pinBudget {
			break
		}
		if err := p.load(c.seg); err != nil {
			break // pinning is an optimization; unpinned paging still works
		}
		c.seg.pinned = true
		p.stats.PinnedBytes += segBytes
	}
}

// load reads segment seg from the spill file into a fresh buffer and
// publishes it. The caller holds the pager mutex (or, during SpillArcs,
// is the only goroutine that can see the pager).
func (p *arcPager) load(seg *arcSeg) error {
	n := int(seg.arcs)
	if cap(p.raw) < n*4 {
		p.raw = make([]byte, n*4)
	}
	raw := p.raw[:n*4]
	if _, err := p.file.ReadAt(raw, seg.fileOff); err != nil {
		return analysis.Errorf(analysis.StageFinalize, analysis.Transient,
			"ddg: reading spill segment: %v", err)
	}
	buf := make([]NodeID, n)
	for i := range buf {
		buf[i] = NodeID(binary.LittleEndian.Uint32(raw[i*4:]))
	}
	seg.ref.Store(false)
	seg.buf.Store(&buf)
	p.resident += int64(n) * 4
	p.stats.Faults++
	if p.resident > p.stats.PeakResidentBytes {
		p.stats.PeakResidentBytes = p.resident
	}
	return nil
}

// evict runs the CLOCK hand until need more bytes fit under the budget
// or no unpinned segment is resident. A referenced segment under the
// hand loses its reference bit and is passed over; the first
// unreferenced one is dropped.
func (p *arcPager) evict(need int64) {
	for p.resident+need > p.budget && len(p.clock) > 0 {
		if p.hand >= len(p.clock) {
			p.hand = 0
		}
		seg := p.clock[p.hand]
		if seg.ref.Load() {
			seg.ref.Store(false)
			p.hand++
			continue
		}
		p.clock = slices.Delete(p.clock, p.hand, p.hand+1)
		p.resident -= int64(seg.arcs) * 4
		seg.buf.Store(nil)
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

// arcsOf answers one adjacency read through the pager. A resident
// segment answers without a lock; an absent one faults.
func (p *arcPager) arcsOf(t *arcTable, u NodeID) []NodeID {
	seg := t.segOf(u)
	buf := seg.buf.Load()
	if buf == nil {
		buf = p.fault(seg)
	} else if !seg.ref.Load() {
		seg.ref.Store(true)
	}
	return (*buf)[t.off[u]-seg.arcBase : t.off[u+1]-seg.arcBase]
}

// fault brings seg in under the mutex: it evicts until seg fits the
// budget, loads it, and puts it on the CLOCK ring unreferenced, just
// behind the hand, so the hand reaches it last and keeps it only if a
// later read has referenced it. A reader that lost the race to another
// fault of seg finds it resident and returns it.
func (p *arcPager) fault(seg *arcSeg) *[]NodeID {
	p.mu.Lock()
	defer p.mu.Unlock()
	if p.closed {
		panic("ddg: adjacency read on a graph whose spill was closed")
	}
	if buf := seg.buf.Load(); buf != nil {
		return buf
	}
	p.evict(int64(seg.arcs) * 4)
	if err := p.load(seg); err != nil {
		panic(err) // unlinked-file read failure: the storage is gone
	}
	p.clock = slices.Insert(p.clock, p.hand, seg)
	p.hand++
	return seg.buf.Load()
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

// CloseSpill releases the spill file descriptor and drops every segment
// buffer, pinned ones included, so that a later read faults and panics.
// The graph's adjacency must not be read afterwards; callers close only
// when the graph is done (end of a request, cache eviction). Idempotent;
// a nil receiver or never-spilled graph is a no-op.
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
	for _, t := range []*arcTable{&p.succ, &p.pred} {
		for s := range t.segs {
			t.segs[s].buf.Store(nil)
		}
	}
	p.clock, p.resident = nil, 0
	runtime.SetFinalizer(p, nil)
	return p.file.Close()
}
