// Package cp implements a small finite-domain constraint programming
// solver: integer variables with bitset domains, propagators scheduled to a
// fixpoint, and depth-first first-fail search with solution enumeration
// and time and step budgets.
//
// It plays the role of the MiniZinc/Chuffed pair in the paper (§5, Pattern
// Matching): the pattern definitions of §4 are expressed as combinatorial
// models over finite-domain variables and solved here.
package cp

import (
	"fmt"
	"math/bits"
	"strings"
)

// domain is a finite set of integers in [offset, offset+capacity), stored
// as a bitset. Domains are value types so search spaces can be copied
// cheaply at choice points.
type domain struct {
	words  []uint64
	offset int
	size   int
}

// newDomainRange returns the domain {lo, ..., hi}.
func newDomainRange(lo, hi int) domain {
	if hi < lo {
		return domain{offset: lo}
	}
	n := hi - lo + 1
	words := make([]uint64, (n+63)/64)
	for i := 0; i < n; i++ {
		words[i/64] |= 1 << (i % 64)
	}
	return domain{words: words, offset: lo, size: n}
}

func (d *domain) clone() domain {
	words := make([]uint64, len(d.words))
	copy(words, d.words)
	return domain{words: words, offset: d.offset, size: d.size}
}

func (d *domain) empty() bool { return d.size == 0 }

func (d *domain) singleton() bool { return d.size == 1 }

func (d *domain) contains(v int) bool {
	i := v - d.offset
	if i < 0 || i >= len(d.words)*64 {
		return false
	}
	return d.words[i/64]&(1<<(i%64)) != 0
}

// remove deletes v; it reports whether the domain changed.
func (d *domain) remove(v int) bool {
	i := v - d.offset
	if i < 0 || i >= len(d.words)*64 {
		return false
	}
	w, b := i/64, uint(i%64)
	if d.words[w]&(1<<b) == 0 {
		return false
	}
	d.words[w] &^= 1 << b
	d.size--
	return true
}

// assign reduces the domain to {v}; it reports whether v was present.
func (d *domain) assign(v int) bool {
	if !d.contains(v) {
		return false
	}
	for i := range d.words {
		d.words[i] = 0
	}
	i := v - d.offset
	d.words[i/64] = 1 << (i % 64)
	d.size = 1
	return true
}

func (d *domain) min() int {
	for w, word := range d.words {
		if word != 0 {
			return d.offset + w*64 + bits.TrailingZeros64(word)
		}
	}
	panic("cp: min of empty domain")
}

func (d *domain) max() int {
	for w := len(d.words) - 1; w >= 0; w-- {
		if d.words[w] != 0 {
			return d.offset + w*64 + 63 - bits.LeadingZeros64(d.words[w])
		}
	}
	panic("cp: max of empty domain")
}

// removeBelow deletes every value < v; reports change.
func (d *domain) removeBelow(v int) bool {
	changed := false
	for d.size > 0 && d.min() < v {
		d.remove(d.min())
		changed = true
	}
	return changed
}

// removeAbove deletes every value > v; reports change.
func (d *domain) removeAbove(v int) bool {
	changed := false
	for d.size > 0 && d.max() > v {
		d.remove(d.max())
		changed = true
	}
	return changed
}

// values lists the domain in increasing order.
func (d *domain) values() []int {
	out := make([]int, 0, d.size)
	for w, word := range d.words {
		for word != 0 {
			b := bits.TrailingZeros64(word)
			out = append(out, d.offset+w*64+b)
			word &^= 1 << b
		}
	}
	return out
}

func (d *domain) String() string {
	if d.empty() {
		return "{}"
	}
	vals := d.values()
	parts := make([]string, len(vals))
	for i, v := range vals {
		parts[i] = fmt.Sprint(v)
	}
	return "{" + strings.Join(parts, ",") + "}"
}
