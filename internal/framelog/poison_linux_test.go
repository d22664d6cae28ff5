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
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// swapReadOnly is the fault: underneath whoever holds it, the one
// descriptor this process has open on path is replaced by a read-only
// one, so the holder's next Write fails. restore puts the original back.
// The owners keep their *framelog.Log unexported, so the swap is made at
// the descriptor table, found through /proc.
func swapReadOnly(t *testing.T, path string) (restore func()) {
	t.Helper()
	path, err := filepath.EvalSymlinks(path)
	if err != nil {
		t.Fatal(err)
	}
	fd := -1
	entries, err := os.ReadDir("/proc/self/fd")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if target, err := os.Readlink("/proc/self/fd/" + e.Name()); err == nil && target == path {
			fd, _ = strconv.Atoi(e.Name())
		}
	}
	if fd < 0 {
		t.Fatalf("no open descriptor on %s", path)
	}
	saved, err := syscall.Dup(fd)
	if err != nil {
		t.Fatal(err)
	}
	ro, err := syscall.Open(path, syscall.O_RDONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer syscall.Close(ro)
	if err := syscall.Dup3(ro, fd, syscall.O_CLOEXEC); err != nil {
		t.Fatal(err)
	}
	return func() {
		if err := syscall.Dup3(saved, fd, syscall.O_CLOEXEC); err != nil {
			t.Fatal(err)
		}
		syscall.Close(saved)
	}
}

// poisonable is one of the four logs, driven through its owner's own
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

func openJournal(open func(string) (*runstore.Journal, error)) func(*testing.T, string) poisonable {
	return func(t *testing.T, dir string) poisonable {
		path := filepath.Join(dir, "j")
		j, err := open(path)
		if err != nil {
			t.Fatal(err)
		}
		return poisonable{
			file: path,
			append: func(i int) error {
				if i%2 == 1 { // both entry points commit through the same log
					return j.AppendBatch([]runstore.Record{poisonRecord(i)})
				}
				return j.Append(poisonRecord(i))
			},
			served: j.Len,
			stored: func() (int, error) {
				info, err := runstore.Inspect(path)
				return info.Records, err
			},
			close: j.Close,
		}
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
		stored: func() (int, error) {
			n, _, _, err := warehouse.InspectIndex(path)
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
// interior record. Nothing from a failed call may be served or stored,
// and reopening the file must find exactly the acknowledged items.
func TestFailedAppendPoisonsJournal(t *testing.T) {
	for _, tc := range []struct {
		name string
		open func(t *testing.T, dir string) poisonable
	}{
		{"jsonl", openJournal(runstore.Open)},
		{"binary", openJournal(runstore.OpenBinary)},
		{"state", openState},
		{"index", openIndex},
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

			restore := swapReadOnly(t, log.file)
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
		})
	}
}
