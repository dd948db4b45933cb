package store

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"discovery/internal/analysis"
)

// flaky is a Store double whose operations fail with a transient error
// until fail reaches zero; afterwards they delegate to the wrapped store.
type flaky struct {
	Store
	mu   sync.Mutex
	fail int
}

func (f *flaky) step() error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.fail > 0 {
		f.fail--
		return analysis.Errorf(analysis.StageStore, analysis.Transient, "flaky backend")
	}
	return nil
}

func (f *flaky) Get(key string) (*Entry, bool, error) {
	if err := f.step(); err != nil {
		return nil, false, err
	}
	return f.Store.Get(key)
}

func (f *flaky) Put(e *Entry) error {
	if err := f.step(); err != nil {
		return err
	}
	return f.Store.Put(e)
}

func (f *flaky) Len() (int, error) {
	if err := f.step(); err != nil {
		return 0, err
	}
	return f.Store.Len()
}

func TestFallbackAbsorbsPrimaryFailures(t *testing.T) {
	primary := &flaky{Store: NewMemory(), fail: 100}
	secondary := NewMemory()
	var ops []string
	f := NewFallback(primary, secondary, func(op string, err error) { ops = append(ops, op) })

	e := &Entry{Key: "res-a-b", Patterns: 2}
	if err := f.Put(e); err != nil {
		t.Fatalf("put with dead primary: %v", err)
	}
	got, ok, err := f.Get("res-a-b")
	if err != nil || !ok || got.Patterns != 2 {
		t.Fatalf("get with dead primary: ok=%v err=%v got=%+v", ok, err, got)
	}
	if n, err := f.Len(); err != nil || n != 1 {
		t.Fatalf("len with dead primary: n=%d err=%v", n, err)
	}
	if f.DegradedOps() != 3 || fmt.Sprint(ops) != "[put get len]" {
		t.Errorf("degraded accounting: %d ops %v", f.DegradedOps(), ops)
	}
}

func TestFallbackSecondLookOnPrimaryMiss(t *testing.T) {
	// An entry written during a degraded window lives only in the
	// secondary; after the primary recovers, a clean primary miss must
	// still find it.
	primary := NewMemory()
	secondary := NewMemory()
	secondary.Put(&Entry{Key: "res-a-b", Patterns: 7})
	f := NewFallback(primary, secondary, nil)
	got, ok, err := f.Get("res-a-b")
	if err != nil || !ok || got.Patterns != 7 {
		t.Fatalf("second look: ok=%v err=%v got=%+v", ok, err, got)
	}
	if f.DegradedOps() != 0 {
		t.Error("healthy-primary miss counted as degradation")
	}
}

func TestFallbackPrefersHealthyPrimary(t *testing.T) {
	primary := NewMemory()
	primary.Put(&Entry{Key: "res-a-b", Patterns: 1})
	secondary := &flaky{Store: NewMemory(), fail: 100}
	f := NewFallback(primary, secondary, nil)
	if got, ok, err := f.Get("res-a-b"); err != nil || !ok || got.Patterns != 1 {
		t.Fatalf("primary hit: ok=%v err=%v", ok, err)
	}
	if err := f.Put(&Entry{Key: "res-c-d"}); err != nil {
		t.Fatalf("primary put: %v", err)
	}
	if f.DegradedOps() != 0 {
		t.Error("healthy primary operations touched the secondary")
	}
}

func TestDiskGetQuarantinesCorruptEntries(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	defer d.Close()

	for name, contents := range map[string]string{
		"res-torn-1.json":  `{"key":"res-torn-1","re`, // truncated mid-write
		"res-empty-2.json": "",                        // zero-length (crash before any byte)
		"res-alien-3.json": `{"key":"res-other"}`,     // parses, wrong identity
	} {
		if err := os.WriteFile(filepath.Join(dir, name), []byte(contents), 0o644); err != nil {
			t.Fatal(err)
		}
		key := name[:len(name)-len(".json")]
		if e, ok, err := d.Get(key); ok || err != nil {
			t.Fatalf("corrupt entry %s served: e=%+v ok=%v err=%v", key, e, ok, err)
		}
	}
	if q := d.Quarantined(); q != 3 {
		t.Errorf("Quarantined() = %d, want 3", q)
	}
	if n, err := d.Len(); err != nil || n != 0 {
		t.Errorf("Len after quarantine: %d %v", n, err)
	}
	// The key is writable again after its corrupt file moved aside.
	if err := d.Put(&Entry{Key: "res-torn-1", Patterns: 4}); err != nil {
		t.Fatal(err)
	}
	if got, ok, _ := d.Get("res-torn-1"); !ok || got.Patterns != 4 {
		t.Fatalf("rewrite after quarantine: ok=%v got=%+v", ok, got)
	}
}

func TestDiskStartupScanRecoversCrashDebris(t *testing.T) {
	dir := t.TempDir()
	d, err := NewDisk(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := d.Put(&Entry{Key: "res-good-1", Patterns: 9}); err != nil {
		t.Fatal(err)
	}
	d.Close()

	// A crash mid-Put: a stale temp file plus a torn final entry.
	os.WriteFile(filepath.Join(dir, ".tmp-999-1"), []byte(`{"key":"res`), 0o644)
	os.WriteFile(filepath.Join(dir, "res-torn-2.json"), []byte(`{"key":"res-torn-2","repo`), 0o644)

	d2, err := NewDisk(dir)
	if err != nil {
		t.Fatalf("reopening a damaged store must not fail: %v", err)
	}
	defer d2.Close()
	if q := d2.Quarantined(); q != 1 {
		t.Errorf("startup scan quarantined %d entries, want 1", q)
	}
	if _, err := os.Stat(filepath.Join(dir, ".tmp-999-1")); !os.IsNotExist(err) {
		t.Error("stale temp file survived the startup scan")
	}
	if got, ok, err := d2.Get("res-good-1"); err != nil || !ok || got.Patterns != 9 {
		t.Fatalf("healthy entry lost in recovery: ok=%v err=%v", ok, err)
	}
	if _, ok, err := d2.Get("res-torn-2"); ok || err != nil {
		t.Fatalf("torn entry served after recovery: ok=%v err=%v", ok, err)
	}
	if n, _ := d2.Len(); n != 1 {
		t.Errorf("Len after recovery = %d, want 1", n)
	}
}

func TestFallbackDegradedClearsOnRecovery(t *testing.T) {
	// A failing primary raises the degraded flag and the secondary serves
	// the spilled entry; once the primary heals, its next operation clears
	// the flag, and the outage-window entry is still found through the
	// second look.
	primary := &flaky{Store: NewMemory(), fail: 100}
	f := NewFallback(primary, NewMemory(), nil)
	if f.Degraded() {
		t.Fatal("fresh fallback reports degraded")
	}

	if err := f.Put(&Entry{Key: "res-a-b", Patterns: 3}); err != nil {
		t.Fatal(err)
	}
	if !f.Degraded() {
		t.Fatal("failed primary put did not raise the degraded flag")
	}
	if got, ok, err := f.Get("res-a-b"); err != nil || !ok || got.Patterns != 3 {
		t.Fatalf("degraded get: ok=%v err=%v got=%+v", ok, err, got)
	}
	if !f.Degraded() || f.DegradedOps() != 2 {
		t.Fatalf("during outage: degraded=%v ops=%d", f.Degraded(), f.DegradedOps())
	}

	// The primary heals: its next operation (a clean miss) clears the flag.
	primary.mu.Lock()
	primary.fail = 0
	primary.mu.Unlock()
	if _, ok, err := f.Get("res-a-b"); err != nil || !ok {
		t.Fatalf("spilled entry lost after recovery: ok=%v err=%v", ok, err)
	}
	if f.Degraded() {
		t.Fatal("healthy primary operation did not clear the degraded flag")
	}
	if err := f.Put(&Entry{Key: "res-e-f"}); err != nil {
		t.Fatal(err)
	}
	if f.Degraded() || f.DegradedOps() != 2 {
		t.Fatalf("after recovery: degraded=%v ops=%d", f.Degraded(), f.DegradedOps())
	}
}
