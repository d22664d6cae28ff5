package runstore

import (
	"bytes"
	"errors"
	"os"
	"path/filepath"
	"testing"
)

// withMergeThreshold runs fn with the parallel-merge threshold pinned,
// restoring the default after.
func withMergeThreshold(t *testing.T, n int, fn func()) {
	t.Helper()
	old := parallelMergeThreshold
	parallelMergeThreshold = n
	defer func() { parallelMergeThreshold = old }()
	fn()
}

// TestParallelMergeByteIdentity runs the same merge through the serial
// and the parallel decode path and requires byte-identical output —
// the ordered pool must not reorder, drop, or duplicate a record.
func TestParallelMergeByteIdentity(t *testing.T) {
	dir := t.TempDir()
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	writeBulkJournal(t, s0, "par-a", 300, 2, "x")
	writeBulkJournal(t, s1, "par-b", 300, 2, "x")
	// One line the write pass must decode and re-encode among the ones it
	// copies, so the pool delivers both kinds of frame.
	edited, err := os.OpenFile(s1, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := edited.WriteString(`{"experiment": "par-b", "row": 7, "replicate": 9, "hash": "edited", "assignment": {"b": "2", "a": "1"}, "responses": {"ms": 1.0}}` + "\n"); err != nil {
		t.Fatal(err)
	}
	if err := edited.Close(); err != nil {
		t.Fatal(err)
	}
	serial := filepath.Join(dir, "serial.jsonl")
	parallel := filepath.Join(dir, "parallel.jsonl")
	withMergeThreshold(t, 1<<30, func() {
		if _, err := Merge([]string{s0, s1}, serial); err != nil {
			t.Fatal(err)
		}
	})
	withMergeThreshold(t, 0, func() {
		if _, err := Merge([]string{s0, s1}, parallel); err != nil {
			t.Fatal(err)
		}
	})
	a, err := os.ReadFile(serial)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(parallel)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, b) {
		t.Fatal("parallel merge output differs from serial output")
	}
}

// TestParallelMergeEarlyBreak stops consuming the parallel record
// stream after a handful of records; the iterator must retire its pool
// before returning (the deferred Wait), so the subsequent plan Close
// races with nothing. Run under -race, that is the whole assertion.
func TestParallelMergeEarlyBreak(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	writeBulkJournal(t, src, "brk", 500, 2, "x")
	withMergeThreshold(t, 0, func() {
		n := 0
		for _, err := range MergeScan([]string{src}) {
			if err != nil {
				t.Fatal(err)
			}
			if n++; n >= 7 {
				break
			}
		}
		if n != 7 {
			t.Fatalf("consumed %d records, want 7", n)
		}
	})
}

// TestParallelMergeReadError forces a decode failure mid-stream (the
// reader is closed underneath the pool) and checks the error surfaces
// through the sequence instead of hanging or leaking workers.
func TestParallelMergeReadError(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	writeBulkJournal(t, src, "err", 500, 2, "x")
	plan, _, err := planMerge([]string{src})
	if err != nil {
		t.Fatal(err)
	}
	plan.sources[0].r.Close()
	plan.sources[0].r = nopCloseReader{plan.sources[0].r} // keep plan.Close happy
	withMergeThreshold(t, 0, func() {
		var sawErr error
		for _, err := range plan.records() {
			if err != nil {
				sawErr = err
				break
			}
		}
		if !errors.Is(sawErr, os.ErrClosed) {
			t.Fatalf("expected a closed-file read error, got %v", sawErr)
		}
	})
}

// nopCloseReader suppresses double-Close on an already-closed reader.
type nopCloseReader struct{ SourceReader }

func (nopCloseReader) Close() error { return nil }
