package trace

import (
	"reflect"
	"testing"
)

// TestNodeRecPointerFree: a trace record is 16 bytes of integers, so
// trace buffers cost a fixed number of bytes per node that the garbage
// collector never scans. A field that brings back a pointer, such as a
// *ddg.Scope or a position string, fails here.
func TestNodeRecPointerFree(t *testing.T) {
	rec := reflect.TypeOf(nodeRec{})
	for i := 0; i < rec.NumField(); i++ {
		f := rec.Field(i)
		switch f.Type.Kind() {
		case reflect.Bool, reflect.Int8, reflect.Int16, reflect.Int32, reflect.Int64, reflect.Int,
			reflect.Uint8, reflect.Uint16, reflect.Uint32, reflect.Uint64, reflect.Uint:
		default:
			t.Errorf("nodeRec.%s has type %v, want a fixed-width integer", f.Name, f.Type)
		}
	}
	if rec.Size() != 16 {
		t.Errorf("nodeRec is %d bytes, want 16", rec.Size())
	}
}
