package store

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"discovery/internal/analysis"
)

// quarantineDir is the subdirectory (under the store root) that unreadable
// entries are moved into. ReadDir-based operations skip directories, so
// quarantined files drop out of Len and lookups without being destroyed —
// an operator can inspect or delete them offline.
const quarantineDir = "quarantine"

// Disk is the on-disk Store backend: one JSON file per entry in a flat
// directory, named after the key. Writes are crash-durable: the entry goes
// to a temporary file which is fsynced, atomically renamed over the final
// name, and sealed with a directory fsync — so after a crash at any
// instant, recovery sees either nothing or the complete entry, never a
// torn file that a later Get could misread (rename is atomic on POSIX, and
// the directory sync makes the rename itself survive the crash).
//
// Reads never trust the bytes: an entry that does not parse back to its
// key — zero-length, truncated, or bit-rotted — is quarantined and
// reported as a miss, not an error. Opening the store scans for such
// casualties up front (and clears stale temp files), so a daemon
// restarting over a damaged directory starts serving instead of dying.
type Disk struct {
	dir string

	mu          sync.Mutex
	closed      bool
	seq         int // temp-file disambiguator under the lock
	quarantined int
}

// NewDisk opens (creating if needed) an on-disk store rooted at dir and
// scans it for crash debris: leftover temp files are removed, entries that
// fail to parse are quarantined. The scan never fails the open on a bad
// entry — a damaged store serves its surviving entries.
func NewDisk(dir string) (*Disk, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: creating %s: %w", dir, err)
	}
	d := &Disk{dir: dir}
	if err := d.recover(); err != nil {
		return nil, err
	}
	return d, nil
}

// Dir returns the store's root directory.
func (d *Disk) Dir() string { return d.dir }

// Quarantined returns how many entries this store instance has moved to
// the quarantine directory — at open (the recovery scan) plus on reads
// that found a corrupt file. Zero on a healthy store.
func (d *Disk) Quarantined() int {
	d.mu.Lock()
	defer d.mu.Unlock()
	return d.quarantined
}

func (d *Disk) path(key string) string {
	return filepath.Join(d.dir, key+".json")
}

// recover is the startup scan: remove temp files a crashed writer left
// behind (their renames never happened, so they are invisible garbage) and
// quarantine entry files that no longer parse (a torn write from a crash
// inside a non-fsynced filesystem window, or external corruption).
func (d *Disk) recover() error {
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return fmt.Errorf("store: scanning %s: %w", d.dir, err)
	}
	for _, f := range names {
		if f.IsDir() {
			continue
		}
		name := f.Name()
		if strings.HasPrefix(name, ".tmp-") {
			os.Remove(filepath.Join(d.dir, name))
			continue
		}
		if !strings.HasSuffix(name, ".json") {
			continue
		}
		key := strings.TrimSuffix(name, ".json")
		if !d.readable(key) {
			d.quarantine(key)
		}
	}
	return nil
}

// readable reports whether the entry file under key parses back to an
// entry claiming that key.
func (d *Disk) readable(key string) bool {
	data, err := os.ReadFile(d.path(key))
	if err != nil {
		return false
	}
	var e Entry
	return json.Unmarshal(data, &e) == nil && e.Key == key
}

// quarantine moves the entry file under key into the quarantine
// subdirectory, out of Len and lookups. Best-effort: if even the move
// fails, the file is removed so it cannot shadow a future healthy Put.
func (d *Disk) quarantine(key string) {
	src := d.path(key)
	qdir := filepath.Join(d.dir, quarantineDir)
	if err := os.MkdirAll(qdir, 0o755); err == nil {
		if os.Rename(src, filepath.Join(qdir, key+".json")) == nil {
			d.mu.Lock()
			d.quarantined++
			d.mu.Unlock()
			return
		}
	}
	if os.Remove(src) == nil {
		d.mu.Lock()
		d.quarantined++
		d.mu.Unlock()
	}
}

// Get implements Store. A file that exists but does not parse back to its
// key is treated as a miss — and quarantined, so the store never serves a
// corrupt entry and a later Put can rewrite the key cleanly. I/O failures
// other than absence are transient-typed: the backend failed, not the
// caller, and a Fallback above answers from its secondary.
func (d *Disk) Get(key string) (*Entry, bool, error) {
	if !keyPattern.MatchString(key) {
		return nil, false, nil // invalid keys are never stored
	}
	data, err := os.ReadFile(d.path(key))
	if os.IsNotExist(err) {
		return nil, false, nil
	}
	if err != nil {
		return nil, false, analysis.Wrap(analysis.StageStore, analysis.Transient, err,
			"reading entry %s", key)
	}
	var e Entry
	if err := json.Unmarshal(data, &e); err != nil || e.Key != key {
		d.quarantine(key)
		return nil, false, nil
	}
	return &e, true, nil
}

// Put implements Store (first write wins). The write path is fsync'd end
// to end — temp file contents, then the atomic rename, then the directory
// entry — so a crash at any point leaves either no entry or the whole one.
func (d *Disk) Put(e *Entry) error {
	if err := validate(e); err != nil {
		return err
	}
	data, err := json.MarshalIndent(e, "", "  ")
	if err != nil {
		return fmt.Errorf("store: encoding %s: %w", e.Key, err)
	}
	d.mu.Lock()
	defer d.mu.Unlock()
	if d.closed {
		return fmt.Errorf("%w: disk store", ErrClosed)
	}
	dst := d.path(e.Key)
	if _, err := os.Stat(dst); err == nil {
		return nil // first write wins
	}
	d.seq++
	tmp := filepath.Join(d.dir, fmt.Sprintf(".tmp-%d-%d", os.Getpid(), d.seq))
	if err := writeFileSync(tmp, append(data, '\n')); err != nil {
		os.Remove(tmp)
		return analysis.Wrap(analysis.StageStore, analysis.Transient, err,
			"writing entry %s", e.Key)
	}
	if err := os.Rename(tmp, dst); err != nil {
		os.Remove(tmp)
		return analysis.Wrap(analysis.StageStore, analysis.Transient, err,
			"committing entry %s", e.Key)
	}
	// Persist the rename itself: without the directory fsync, a crash can
	// forget the new directory entry while keeping the (synced) inode —
	// the classic window that resurrects the "missing" state after the
	// writer already reported success.
	if err := syncDir(d.dir); err != nil {
		return analysis.Wrap(analysis.StageStore, analysis.Transient, err,
			"syncing directory for %s", e.Key)
	}
	return nil
}

// writeFileSync writes data to path and fsyncs it before closing, so the
// bytes are on stable storage before the caller renames the file into
// place.
func writeFileSync(path string, data []byte) error {
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_CREATE|os.O_EXCL, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// syncDir fsyncs a directory, making recent renames within it durable.
func syncDir(dir string) error {
	f, err := os.Open(dir)
	if err != nil {
		return err
	}
	defer f.Close()
	return f.Sync()
}

// Len implements Store.
func (d *Disk) Len() (int, error) {
	d.mu.Lock()
	closed := d.closed
	d.mu.Unlock()
	if closed {
		return 0, fmt.Errorf("%w: disk store", ErrClosed)
	}
	names, err := os.ReadDir(d.dir)
	if err != nil {
		return 0, analysis.Wrap(analysis.StageStore, analysis.Transient, err,
			"listing %s", d.dir)
	}
	n := 0
	for _, f := range names {
		if !f.IsDir() && strings.HasSuffix(f.Name(), ".json") {
			n++
		}
	}
	return n, nil
}

// Close implements Store. The directory and its entries remain on disk;
// a later NewDisk over the same directory serves them again.
func (d *Disk) Close() error {
	d.mu.Lock()
	defer d.mu.Unlock()
	d.closed = true
	return nil
}
