package ddg

import (
	"reflect"
	"testing"
)

// hasPointers reports whether a value of type t holds anything the
// garbage collector must scan.
func hasPointers(t reflect.Type) bool {
	switch t.Kind() {
	case reflect.Array:
		return hasPointers(t.Elem())
	case reflect.Struct:
		for i := 0; i < t.NumField(); i++ {
			if hasPointers(t.Field(i).Type) {
				return true
			}
		}
		return false
	case reflect.Pointer, reflect.UnsafePointer, reflect.Map, reflect.Slice, reflect.String,
		reflect.Interface, reflect.Chan, reflect.Func:
		return true
	}
	return false
}

// TestGraphArraysPointerFree: every per-node and per-arc array of a Graph
// (its slice fields) holds pointer-free elements, so a node costs a fixed
// number of bytes the collector never scans. A field that brings back a
// pointer per node, such as a *Scope or a position string, fails here.
func TestGraphArraysPointerFree(t *testing.T) {
	g := reflect.TypeOf(Graph{})
	arrays := 0
	for i := 0; i < g.NumField(); i++ {
		f := g.Field(i)
		if f.Type.Kind() != reflect.Slice {
			continue
		}
		arrays++
		if hasPointers(f.Type.Elem()) {
			t.Errorf("Graph.%s holds %v, which contains pointers", f.Name, f.Type.Elem())
		}
	}
	if arrays < 8 {
		t.Fatalf("found %d slice fields in Graph, want the 8 per-node and per-arc arrays", arrays)
	}
}
