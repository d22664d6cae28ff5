package framelog_test

import (
	"errors"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
	"testing"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

var errInjected = errors.New("injected sync failure")

// holdFirstSync installs a commit sync hook that holds the first sync:
// it sends that sync's descriptor on entered, waits for release, and
// returns the error released, or the real sync's result for nil. Every
// later sync is handed to then. A test that ends without releasing
// releases nil, before the cleanups registered ahead of this call — a
// Close waits for the held sync.
func holdFirstSync(t *testing.T, then func(f *os.File) error) (entered <-chan *os.File, release func(error)) {
	t.Helper()
	in, out := make(chan *os.File, 1), make(chan error, 1)
	var once sync.Once
	release = func(err error) { once.Do(func() { out <- err }) }
	var calls atomic.Int32
	t.Cleanup(framelog.SetCommitSync(func(f *os.File) error {
		if calls.Add(1) > 1 {
			return then(f)
		}
		in <- f
		if err := <-out; err != nil {
			return err
		}
		return f.Sync()
	}))
	t.Cleanup(func() { release(nil) })
	return in, release
}

func noReplay([]byte, int64, int64) error { return nil }

// TestCommitSettlesInWriteOrder holds commit a's sync while b writes and
// syncs: b's sync finishes first, but b is settled only after a, so the
// callbacks run a, then b. If a's held sync fails, neither is settled:
// both return the failure, and the file is cut back to before a.
func TestCommitSettlesInWriteOrder(t *testing.T) {
	for _, tc := range []struct {
		name string
		held error // what a's held sync reports
	}{
		{"held sync succeeds", nil},
		{"held sync fails", errInjected},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "log")
			l, err := framelog.Open(path, framelog.Lines, noReplay)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { l.Close() })
			var settled []string // appended under the log's lock
			commit := func(name string, errc chan<- error) {
				errc <- l.Commit([]byte(name+"\n"), func() { settled = append(settled, name) })
			}
			var later []*os.File // the descriptors of the syncs after a's
			bSynced := make(chan struct{})
			entered, release := holdFirstSync(t, func(f *os.File) error {
				later = append(later, f)
				if len(later) == 1 {
					defer close(bSynced)
				}
				return f.Sync()
			})

			errA, errB := make(chan error, 1), make(chan error, 1)
			go commit("a", errA)
			writer := <-entered
			go commit("b", errB)
			<-bSynced
			release(tc.held)
			a, b := <-errA, <-errB
			if later[0] == writer {
				t.Error("b's sync overlapped a's on the same descriptor")
			}

			errC := make(chan error, 1)
			commit("c", errC)
			c := <-errC
			want, wantSettled := "a\nb\nc\n", []string{"a", "b", "c"}
			if tc.held != nil {
				for name, err := range map[string]error{"a": a, "b": b, "c": c} {
					if !errors.Is(err, errInjected) || !strings.Contains(err.Error(), "must be reopened") {
						t.Errorf("commit %s = %v, want the sticky failure of a's sync", name, err)
					}
				}
				want, wantSettled = "", nil
			} else {
				if a != nil || b != nil || c != nil {
					t.Fatalf("commits a, b, c = %v, %v, %v", a, b, c)
				}
				if later[1] != writer {
					t.Error("a lone commit did not sync on the writer's descriptor")
				}
			}
			if !slices.Equal(settled, wantSettled) {
				t.Errorf("settled %q, want %q", settled, wantSettled)
			}
			if data, err := os.ReadFile(path); err != nil || string(data) != want {
				t.Errorf("file holds %q (err %v), want %q", data, err, want)
			}
		})
	}
}

func record(replicate int, v float64) runstore.Record {
	return runstore.Record{Experiment: "e", Replicate: replicate,
		Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": v}}
}

// journals are the stores whose appends overlap their commits: the JSONL
// journal alone. The archive, the one binary store, holds its own mutex
// across Commit, so two of its appends never overlap (its commits are
// TestFailedAppendPoisonsJournal's "binary" rows).
var journals = []struct {
	name string
	open func(string) (*runstore.Journal, error)
}{
	{"jsonl", runstore.Open},
}

// TestConcurrentAppendsServeFileOrder overlaps two Appends of one key
// and lets the later-written one's sync finish first: neither is served
// until the earlier one settles, and then the later-written record wins
// in the live index, as it does on reopen.
func TestConcurrentAppendsServeFileOrder(t *testing.T) {
	for _, jc := range journals {
		t.Run(jc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, err := jc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			bSynced := make(chan struct{})
			entered, release := holdFirstSync(t, func(f *os.File) error {
				defer close(bSynced)
				return f.Sync()
			})
			errA, errB := make(chan error, 1), make(chan error, 1)
			go func() { errA <- j.Append(record(0, 1)) }()
			<-entered
			go func() { errB <- j.Append(record(0, 2)) }()
			<-bSynced
			lookup := func(j *runstore.Journal) float64 {
				rec, _ := j.Lookup("e", runstore.AssignmentHash(record(0, 0).Assignment), 0)
				return rec.Responses["ms"]
			}
			if v := lookup(j); v != 0 {
				t.Errorf("live Lookup = %v while the first append's sync is held, want nothing", v)
			}
			release(nil)
			if err := errors.Join(<-errA, <-errB); err != nil {
				t.Fatal(err)
			}
			if v := lookup(j); v != 2 {
				t.Errorf("live Lookup = %v, want 2, the later-written record", v)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}
			re, err := jc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if v := lookup(re); v != 2 {
				t.Errorf("reopened Lookup = %v, want 2", v)
			}
		})
	}
}

// TestFailedSyncWithCommitsInFlight fails b's sync while a's is held:
// neither is settled, so both return the first failure and neither record
// is served, and the file is cut back to the last settled commit, so a
// reopen finds exactly the acknowledged record and no torn tail.
func TestFailedSyncWithCommitsInFlight(t *testing.T) {
	for _, jc := range journals {
		t.Run(jc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, err := jc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			t.Cleanup(func() { j.Close() })
			if err := j.Append(record(0, 0)); err != nil {
				t.Fatal(err)
			}
			fi, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}

			entered, release := holdFirstSync(t, func(*os.File) error { return errInjected })
			errA := make(chan error, 1)
			go func() { errA <- j.Append(record(1, 1)) }()
			<-entered
			errB := j.Append(record(2, 2))
			if !errors.Is(errB, errInjected) || !strings.Contains(errB.Error(), "must be reopened") {
				t.Fatalf("append whose sync failed = %v, want the must-be-reopened failure", errB)
			}
			release(nil) // a's own sync succeeds, after the log failed
			if err := <-errA; !errors.Is(err, errB) {
				t.Errorf("append in flight at the failure = %v, want the first failure %v", err, errB)
			}
			if n := j.Len(); n != 1 {
				t.Errorf("journal serves %d record(s), want the 1 acknowledged", n)
			}
			if got, err := os.Stat(path); err != nil {
				t.Fatal(err)
			} else if got.Size() != fi.Size() {
				t.Errorf("file is %d bytes, want %d, the settled boundary", got.Size(), fi.Size())
			}
			if err := j.Append(record(3, 3)); !errors.Is(err, errB) {
				t.Errorf("append after the failure = %v, want the first failure", err)
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			re, err := jc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer re.Close()
			if re.Len() != 1 || re.Torn() {
				t.Errorf("reopened journal holds %d record(s), torn %v; want 1, not torn", re.Len(), re.Torn())
			}
		})
	}
}
