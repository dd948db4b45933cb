package sched

import (
	"strings"
	"testing"
)

// TestSubmitRejectsNegativeClass: a negative class has no queue; Submit
// panics before queueing any task of the batch.
func TestSubmitRejectsNegativeClass(t *testing.T) {
	p := NewPool(0, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()
	ran := false
	func() {
		defer func() {
			r := recover()
			if msg, _ := r.(string); !strings.Contains(msg, "negative Class -1") {
				t.Fatalf("Submit panicked with %v, want a negative-class message", r)
			}
		}()
		o.Submit(Task{Do: func(bool) { ran = true }}, Task{Class: -1, Do: func(bool) {}})
	}()
	o.Wait()
	if ran || p.Stats().Submitted != 0 {
		t.Fatalf("a rejected batch was queued (ran=%v, submitted=%d)", ran, p.Stats().Submitted)
	}
}

// TestClassFIFOAcrossRefills: a class queue drained and refilled keeps
// submission order, including tasks submitted by running tasks.
func TestClassFIFOAcrossRefills(t *testing.T) {
	p := NewPool(0, nil)
	defer p.Close()
	o := p.NewOwner(nil)
	defer o.Close()
	var order []int
	mark := func(class, id int) Task {
		return Task{Class: class, Do: func(bool) { order = append(order, id) }}
	}
	o.Submit(mark(1, 10), Task{Class: 0, Do: func(bool) {
		order = append(order, 0)
		o.Submit(mark(0, 1), mark(3, 30), mark(1, 11))
	}})
	o.Wait()
	o.Submit(mark(1, 12), mark(0, 2))
	o.Wait()
	want := []int{0, 1, 10, 11, 30, 2, 12}
	if len(order) != len(want) {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}
