package framelog_test

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"

	"repro/internal/collector"
	"repro/internal/framelog"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/warehouse"
)

// swapReadOnly is the write fault: underneath whoever holds them, every
// descriptor this process has open on path is replaced by a read-only
// one, so the holder's next Write fails. restore puts the originals back.
// The owners keep their *framelog.Log unexported, so the swap is made at
// the descriptor table, found through /proc; a log that has overlapped
// two syncs holds more than one descriptor.
func swapReadOnly(t *testing.T, path string) (restore func()) {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	ro, err := syscall.Open(path, syscall.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(ro)
	saved := map[int]int{} // swapped descriptor → a duplicate of the original
	for _, e := range entries {
		// ro may have taken the number the listing's own descriptor had.
		fd, _ := strconv.Atoi(e.Name())
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err != nil || target != path || fd == ro {
			continue
		}
		dup, err := syscall.Dup(fd)
		if err != nil {
			t.Fatal(err)
		}
		saved[fd] = dup
		if err := syscall.Dup3(ro, fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
	}
	if len(saved) == 0 {
		t.Fatalf("no open descriptor on %s", path)
	}
	return func() {
		for fd, dup := range saved {
			if err := syscall.Dup3(dup, fd, syscall.O_CLOEXEC); err != nil {
				t.Fatal(err)
			}
			syscall.Close(dup)
		}
	}
}

// failSyncs is the sync fault: every Commit's write lands and its sync
// fails.
func failSyncs(*testing.T, string) (restore func()) {
	return framelog.SetCommitSync(func(*os.File) error { return errInjected })
}

// poisonable is one of the logs, driven through its owner's own
// append path.
type poisonable struct {
	file   string              // the framelog file under the owner
	append func(i int) error   // append item i; the error the owner's append returned
	served func() int          // items the owner serves from memory; nil if it serves none
	stored func() (int, error) // items a read-only scan of file finds
	close  func() error
}

func poisonRecord(i int) runstore.Record {
	return runstore.Record{Experiment: "e", Replicate: i,
		Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": float64(i)}}
}

// store is what the journal and the archive offer the poison test.
type store interface {
	runstore.Store
	runstore.BatchAppender
	Len() int
}

func openJournal(t *testing.T, dir string) poisonable {
	path := filepath.Join(dir, "j")
	j, err := runstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return poisonableStore(j, path, j.Close)
}

// openArchive drives the binary store, an archive. Its Close commits the
// footer, which a poisoned log refuses with its first failure: the file
// stays unfinalized, and the reopen replays it.
func openArchive(t *testing.T, dir string) poisonable {
	path := filepath.Join(dir, "a"+archivestore.Ext)
	a, err := archivestore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	return poisonableStore(a, path, func() error {
		if err := a.Close(); err != nil && !strings.Contains(err.Error(), "must be reopened") {
			return err
		}
		return nil
	})
}

func poisonableStore(s store, path string, close func() error) poisonable {
	return poisonable{
		file: path,
		append: func(i int) error {
			if i%2 == 1 { // both entry points commit through the same log
				return s.AppendBatch([]runstore.Record{poisonRecord(i)})
			}
			return s.Append(poisonRecord(i))
		},
		served: s.Len,
		stored: func() (int, error) {
			info, err := runstore.Inspect(path)
			return info.Records, err
		},
		close: close,
	}
}

// openIndex drives the warehouse index through Refresh: each item is a
// new one-record source, whose ingest is one Put. A source whose Put
// failed is taken away again, so that only the item asked for is ever
// pending.
func openIndex(t *testing.T, dir string) poisonable {
	w, err := warehouse.Open(dir, warehouse.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, warehouse.IndexFile)
	return poisonable{
		file: path,
		append: func(i int) error {
			srcPath := filepath.Join(dir, fmt.Sprintf("run%d.jsonl", i))
			src, err := runstore.Open(srcPath)
			if err != nil {
				return err
			}
			if err := errors.Join(src.Append(poisonRecord(i)), src.Close()); err != nil {
				return err
			}
			if _, err = w.Refresh(); err != nil {
				os.Remove(srcPath)
			}
			return err
		},
		served: func() int { return len(w.Runs()) },
		// Runs on disk: every item is a source of its own, one frame each. The
		// framing's name only labels errors and its bound only caps a frame,
		// so a count under them is the index's; that each frame decodes to a
		// run, served says after a reopen, which replays the index.
		stored: func() (int, error) {
			f, err := os.Open(path)
			if err != nil {
				return 0, err
			}
			defer f.Close()
			n := 0
			_, _, err = framelog.Frames("warehouse index", warehouse.IndexMagic, 1<<28).ScanFile(f, func([]byte, int64, int64) error {
				n++
				return nil
			})
			return n, err
		},
		close: w.Close,
	}
}

// errCapture is a slog.Handler that keeps the last "err" attribute
// logged: the daemon logs a failed control-state append and serves on,
// so its log is where that append's error surfaces.
type errCapture struct{ last *error }

func (errCapture) Enabled(context.Context, slog.Level) bool { return true }
func (h errCapture) Handle(_ context.Context, r slog.Record) error {
	r.Attrs(func(a slog.Attr) bool {
		if err, ok := a.Value.Any().(error); ok && a.Key == "err" {
			*h.last = err
		}
		return true
	})
	return nil
}
func (h errCapture) WithAttrs([]slog.Attr) slog.Handler { return h }
func (h errCapture) WithGroup(string) slog.Handler      { return h }

// openState drives the collector's control-state log through the
// daemon: each item is one anonymous worker registration, which
// journals one event.
func openState(t *testing.T, dir string) poisonable {
	var logged error
	srv, err := collector.New(collector.Config{Dir: dir, Metrics: obs.NewRegistry(),
		Logger: slog.New(errCapture{&logged})})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, collector.StateFile)
	return poisonable{
		file: path,
		append: func(int) error {
			logged = nil
			rec := httptest.NewRecorder()
			srv.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, collector.PathRegister, strings.NewReader("{}")))
			if rec.Code != http.StatusOK {
				return fmt.Errorf("register answered %d", rec.Code)
			}
			return logged
		},
		stored: func() (int, error) { // worker events on disk
			data, err := os.ReadFile(path)
			return strings.Count(string(data), `"type":"worker"`), err
		},
		close: srv.Close,
	}
}

// TestFailedAppendPoisonsJournal is the fail-stop regression test for
// every log built on framelog: after a Write or Sync fails the handle
// must stay failed — even once the fault is gone — because a later
// successful append would bury the failed one's torn bytes as a corrupt
// interior record. Nothing from a failed call may be served or stored —
// a failed sync's written bytes are cut off again — and reopening the
// file must find exactly the acknowledged items.
func TestFailedAppendPoisonsJournal(t *testing.T) {
	for _, tc := range []struct {
		name  string
		open  func(t *testing.T, dir string) poisonable
		fault func(t *testing.T, path string) (restore func())
	}{
		{"jsonl", openJournal, swapReadOnly},
		{"binary", openArchive, swapReadOnly},
		{"state", openState, swapReadOnly},
		{"index", openIndex, swapReadOnly},
		{"jsonl-sync", openJournal, failSyncs},
		{"binary-sync", openArchive, failSyncs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			log := tc.open(t, dir)
			defer func() { log.close() }()
			const acked = 2
			for i := 0; i < acked; i++ {
				if err := log.append(i); err != nil {
					t.Fatal(err)
				}
			}

			restore := tc.fault(t, log.file)
			first := log.append(acked)
			restore() // the fault clears; the log must not
			if first == nil {
				t.Fatal("append through a read-only descriptor succeeded")
			}
			if !strings.Contains(first.Error(), "must be reopened") {
				t.Errorf("failure does not say what to do about it: %v", first)
			}
			for i := acked + 1; i <= acked+2; i++ {
				if err := log.append(i); !errors.Is(err, first) {
					t.Errorf("append %d after a failed one = %v, want the first failure", i, err)
				}
			}
			if log.served != nil && log.served() != acked {
				t.Errorf("log serves %d item(s), want only the %d acknowledged", log.served(), acked)
			}
			if n, err := log.stored(); err != nil || n != acked {
				t.Errorf("file holds %d item(s) (err %v), want only the %d acknowledged", n, err, acked)
			}
			if err := log.close(); err != nil {
				t.Fatal(err)
			}

			log = tc.open(t, dir)
			if err := log.append(acked + 3); err != nil {
				t.Fatalf("append after reopening: %v", err)
			}
			if n, err := log.stored(); err != nil || n != acked+1 {
				t.Fatalf("reopened file holds %d item(s) (err %v), want the %d acknowledged and the new one", n, err, acked)
			}
			if log.served != nil && log.served() != acked+1 {
				t.Errorf("reopened log serves %d item(s), want the %d acknowledged and the new one", log.served(), acked)
			}
		})
	}
}

// TestPoisonedArchiveBatchMovesNothing fails an archive's commit of one
// batch that an index page falls due inside: the batch is served by
// neither Lookup nor Scan, the archive's shape — records, index pages —
// has not moved, and a reopen serves exactly the acknowledged records and
// takes appends again.
func TestPoisonedArchiveBatchMovesNothing(t *testing.T) {
	batch := func(from, n int) []runstore.Record {
		recs := make([]runstore.Record, n)
		for i := range recs {
			recs[i] = poisonRecord(from + i)
		}
		return recs
	}
	const acked = archivestore.DefaultIndexInterval - 10 // the failed batch crosses the first page
	for _, tc := range []struct {
		name  string
		fault func(t *testing.T, path string) (restore func())
	}{
		{"write", swapReadOnly},
		{"sync", failSyncs},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "a"+archivestore.Ext)
			a, err := archivestore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if err := a.AppendBatch(batch(0, acked)); err != nil {
				t.Fatal(err)
			}
			before := a.Info()

			restore := tc.fault(t, path)
			err = a.AppendBatch(batch(acked, 20))
			restore()
			if err == nil || !strings.Contains(err.Error(), "must be reopened") {
				t.Fatalf("batch through the fault = %v, want the must-be-reopened failure", err)
			}
			if info := a.Info(); info != before {
				t.Errorf("the failed batch moved the archive from %+v to %+v", before, info)
			}
			if _, ok := a.Lookup("e", runstore.AssignmentHash(poisonRecord(0).Assignment), acked); ok {
				t.Error("Lookup serves a record of the failed batch")
			}
			if recs, err := runstore.Collect(a.Scan()); err != nil || len(recs) != acked {
				t.Errorf("Scan serves %d record(s) (err %v), want the %d acknowledged", len(recs), err, acked)
			}
			if err := a.Close(); err != nil && !strings.Contains(err.Error(), "must be reopened") {
				t.Fatal(err)
			}

			re, err := archivestore.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if info := re.Info(); info.Records != acked || info.Distinct != acked || re.Torn() {
				t.Errorf("reopened archive = %+v (torn %v), want the %d acknowledged records", info, re.Torn(), acked)
			}
			if err := re.AppendBatch(batch(acked, 20)); err != nil {
				t.Fatalf("batch after reopening: %v", err)
			}
			if n := re.Len(); n != acked+20 {
				t.Errorf("reopened archive serves %d record(s) after the batch, want %d", n, acked+20)
			}
		})
	}
}
