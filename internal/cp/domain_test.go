package cp

import (
	"testing"
	"testing/quick"
)

func TestDomainRange(t *testing.T) {
	d := newDomainRange(3, 7)
	if d.size != 5 || d.min() != 3 || d.max() != 7 {
		t.Errorf("range domain: size=%d min=%d max=%d", d.size, d.min(), d.max())
	}
	if !d.contains(5) || d.contains(2) || d.contains(8) {
		t.Error("contains misbehaves")
	}
	empty := newDomainRange(5, 4)
	if !empty.empty() {
		t.Error("inverted range should be empty")
	}
}

// domainOf returns the domain holding exactly the values in [lo, hi] that
// keep accepts, built as the solver builds domains: a range, then removals.
func domainOf(lo, hi int, keep func(int) bool) domain {
	d := newDomainRange(lo, hi)
	for v := lo; v <= hi; v++ {
		if !keep(v) {
			d.remove(v)
		}
	}
	return d
}

func TestDomainValues(t *testing.T) {
	d := domainOf(-3, 42, func(v int) bool { return v == -3 || v == 10 || v == 42 })
	if d.size != 3 {
		t.Errorf("size = %d, want 3", d.size)
	}
	want := []int{-3, 10, 42}
	got := d.values()
	if len(got) != len(want) {
		t.Fatalf("values = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("values = %v, want %v", got, want)
		}
	}
	if d.min() != -3 || d.max() != 42 {
		t.Errorf("bounds = [%d,%d], want [-3,42]", d.min(), d.max())
	}
	if none := domainOf(0, 5, func(int) bool { return false }); !none.empty() {
		t.Error("domain with every value removed should be empty")
	}
}

func TestDomainMutation(t *testing.T) {
	d := newDomainRange(0, 9)
	if !d.remove(5) || d.remove(5) {
		t.Error("remove misbehaves")
	}
	if d.size != 9 {
		t.Errorf("size after remove = %d", d.size)
	}
	if !d.assign(7) || d.size != 1 || d.min() != 7 {
		t.Error("assign misbehaves")
	}
	if d.assign(3) {
		t.Error("assign of absent value should fail")
	}
	d2 := newDomainRange(0, 9)
	d2.removeBelow(4)
	d2.removeAbove(6)
	if d2.min() != 4 || d2.max() != 6 || d2.size != 3 {
		t.Errorf("bounds pruning: %s", d2.String())
	}
}

func TestDomainCloneIndependence(t *testing.T) {
	d := newDomainRange(0, 63)
	c := d.clone()
	c.remove(0)
	if !d.contains(0) {
		t.Error("clone shares storage")
	}
}

func TestDomainString(t *testing.T) {
	d := newDomainRange(1, 3)
	d.remove(2)
	if d.String() != "{1,3}" {
		t.Errorf("String = %q", d.String())
	}
	var e domain
	if e.String() != "{}" {
		t.Errorf("empty String = %q", e.String())
	}
}

// Property: for random value sets carved out of a range by removals,
// min/max/size are consistent with the values list, which is exactly the
// set.
func TestDomainConsistencyProperty(t *testing.T) {
	prop := func(raw []int16) bool {
		set := map[int]bool{}
		for _, v := range raw {
			set[int(v)%200] = true
		}
		d := domainOf(-199, 199, func(v int) bool { return set[v] })
		list := d.values()
		if len(list) != d.size || d.size != len(set) {
			return false
		}
		for _, v := range list {
			if !set[v] {
				return false
			}
		}
		if d.size > 0 && (list[0] != d.min() || list[len(list)-1] != d.max()) {
			return false
		}
		for i := 1; i < len(list); i++ {
			if list[i] <= list[i-1] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
