package durability

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync/atomic"

	"repro/internal/scheduler"
)

// SyncPolicy selects when appended records are fsynced to stable storage.
type SyncPolicy int

const (
	// SyncAlways fsyncs every append before acknowledging it: no
	// acknowledged operation can be lost, at one disk flush per op.
	SyncAlways SyncPolicy = iota
	// SyncInterval batches fsyncs on a timer (Store's SyncInterval): a
	// crash can lose the last interval's acknowledged operations, but
	// appends run at memory speed. A failed timer fsync stops the store:
	// every later append is refused.
	SyncInterval
	// SyncNone never fsyncs explicitly; the OS flushes when it pleases.
	// Survives process crashes (the page cache persists) but not machine
	// crashes.
	SyncNone
)

// String names the policy.
func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNone:
		return "none"
	default:
		return "unknown"
	}
}

// ParseSyncPolicy parses the -wal-sync flag values.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "none":
		return SyncNone, nil
	default:
		return 0, fmt.Errorf("durability: unknown sync policy %q (want always, interval or none)", s)
	}
}

const (
	segPrefix  = "wal-"
	segSuffix  = ".log"
	snapPrefix = "snap-"
	snapSuffix = ".snap"
)

// segmentName returns the file name of the segment whose first record has
// the given global index.
func segmentName(first uint64) string {
	return fmt.Sprintf("%s%020d%s", segPrefix, first, segSuffix)
}

// parseIndexed extracts the index from "<prefix><20 digits><suffix>".
func parseIndexed(name, prefix, suffix string) (uint64, bool) {
	if !strings.HasPrefix(name, prefix) || !strings.HasSuffix(name, suffix) {
		return 0, false
	}
	digits := name[len(prefix) : len(name)-len(suffix)]
	if len(digits) != 20 {
		return 0, false
	}
	v, err := strconv.ParseUint(digits, 10, 64)
	if err != nil {
		return 0, false
	}
	return v, true
}

// wal is one open write-ahead log segment. Callers serialize access (the
// Store's mutex); the dirty flag alone is shared with the sync loop.
type wal struct {
	dir    string
	policy SyncPolicy

	f        *os.File
	path     string
	index    uint64 // global index of the next record to append
	segStart uint64 // global index of this segment's first record
	size     int64  // bytes written to this segment
	payload  []byte // scratch encode buffers
	frame    []byte
	dirty    atomic.Bool
}

// openWALSegment creates (or truncates) the segment starting at first and
// syncs the directory so the file itself survives a crash.
func openWALSegment(dir string, first uint64, policy SyncPolicy) (*wal, error) {
	path := filepath.Join(dir, segmentName(first))
	f, err := os.OpenFile(path, os.O_CREATE|os.O_TRUNC|os.O_WRONLY, 0o644)
	if err != nil {
		return nil, fmt.Errorf("durability: open segment: %w", err)
	}
	if err := syncDir(dir); err != nil {
		return nil, errors.Join(err, f.Close())
	}
	return &wal{dir: dir, policy: policy, f: f, path: path, index: first, segStart: first}, nil
}

// append encodes and writes one record frame, fsyncing per policy.
func (w *wal) append(op scheduler.Op) error {
	w.payload = appendOp(w.payload[:0], op)
	w.frame = appendFrame(w.frame[:0], w.payload)
	if _, err := w.f.Write(w.frame); err != nil {
		return fmt.Errorf("durability: append record %d: %w", w.index, err)
	}
	w.size += int64(len(w.frame))
	w.index++
	if w.policy == SyncAlways {
		return w.syncFile()
	}
	w.dirty.Store(true)
	return nil
}

// sync flushes outstanding appends if any.
func (w *wal) sync() error {
	if !w.dirty.Swap(false) {
		return nil
	}
	return w.syncFile()
}

func (w *wal) syncFile() error {
	if err := w.f.Sync(); err != nil {
		return fmt.Errorf("durability: fsync %s: %w", w.path, err)
	}
	return nil
}

// rotate closes the current segment and opens a fresh one at the current
// index, so a snapshot covering everything before it can truncate the log
// by whole files.
func (w *wal) rotate() error {
	if err := w.sync(); err != nil {
		return err
	}
	if err := w.f.Close(); err != nil {
		return fmt.Errorf("durability: close segment: %w", err)
	}
	nw, err := openWALSegment(w.dir, w.index, w.policy)
	if err != nil {
		return err
	}
	w.f, w.path, w.segStart, w.size = nw.f, nw.path, nw.segStart, nw.size
	w.dirty.Store(false)
	return nil
}

// close syncs and closes the open segment.
func (w *wal) close() error {
	if err := w.sync(); err != nil {
		return errors.Join(err, w.f.Close())
	}
	return w.f.Close()
}

// syncDir fsyncs a directory so renames and creates in it are durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("durability: open dir: %w", err)
	}
	defer d.Close()
	if err := d.Sync(); err != nil {
		return fmt.Errorf("durability: fsync dir %s: %w", dir, err)
	}
	return nil
}

// segmentFile pairs a segment path with the global index of its first
// record.
type segmentFile struct {
	path  string
	first uint64
}

// scanDir lists a WAL directory's segments (sorted by first index) and
// snapshots (sorted by covered index), removing leftover temporary files
// from an interrupted snapshot write.
func scanDir(dir string) (segs []segmentFile, snaps []segmentFile, err error) {
	entries, err := os.ReadDir(dir)
	if err != nil {
		return nil, nil, fmt.Errorf("durability: scan %s: %w", dir, err)
	}
	for _, e := range entries {
		name := e.Name()
		if strings.HasSuffix(name, ".tmp") {
			// A crash mid-snapshot leaves a temp file; it was never
			// renamed into place, so it holds nothing durable.
			_ = os.Remove(filepath.Join(dir, name))
			continue
		}
		if first, ok := parseIndexed(name, segPrefix, segSuffix); ok {
			segs = append(segs, segmentFile{path: filepath.Join(dir, name), first: first})
		} else if idx, ok := parseIndexed(name, snapPrefix, snapSuffix); ok {
			snaps = append(snaps, segmentFile{path: filepath.Join(dir, name), first: idx})
		}
	}
	sort.Slice(segs, func(i, j int) bool { return segs[i].first < segs[j].first })
	sort.Slice(snaps, func(i, j int) bool { return snaps[i].first < snaps[j].first })
	return segs, snaps, nil
}
