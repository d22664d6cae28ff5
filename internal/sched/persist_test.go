package sched

import (
	"bytes"
	"context"
	"errors"
	"iter"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"
	"unsafe"

	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// appendOnly hides everything but the five Store methods, the way a
// third-party decorator does: the persist stage must fall back to
// appending from the worker.
type appendOnly struct{ runstore.Store }

// TestPersistPathsWriteTheSameJournal runs one design through both
// sides of the persist stage's selection — a journal (committer over
// AppendBatch) and the same journal behind a five-method wrapper (Append
// from the worker) — and checks that the choice is invisible on disk:
// at Workers: 1 both files are the design-order journal, byte for byte.
// The commit counters tell the two paths apart.
func TestPersistPathsWriteTheSameJournal(t *testing.T) {
	const cells, reps = 40, 5
	run := func(wrap bool) ([]byte, obs.Snapshot) {
		dir := t.TempDir()
		j, err := runstore.OpenDir(dir, "sched wide")
		if err != nil {
			t.Fatal(err)
		}
		var store runstore.Store = j
		if wrap {
			store = appendOnly{j}
		}
		reg := obs.NewRegistry()
		s := New(Options{Workers: 1, Store: store, Metrics: reg})
		if _, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, nil)); err != nil {
			t.Fatal(err)
		}
		if st := s.LastStats(); st.Executed != cells*reps {
			t.Fatalf("executed %d unit(s), want %d", st.Executed, cells*reps)
		}
		j.Close()
		data, err := os.ReadFile(j.Path())
		if err != nil {
			t.Fatal(err)
		}
		return data, reg.Snapshot()
	}
	batched, bsnap := run(false)
	single, ssnap := run(true)
	if !bytes.Equal(batched, single) {
		t.Error("the committer's journal differs from the per-unit one")
	}
	if n := metric(t, ssnap, "sched_commits_total").Value; n != cells*reps {
		t.Errorf("five-method store: %v commit(s), want one per unit (%d)", n, cells*reps)
	}
	if n := metric(t, bsnap, "sched_commits_total").Value; n < 1 || n > cells*reps {
		t.Errorf("batch store: %v commit(s) for %d units", n, cells*reps)
	}
	for _, snap := range []obs.Snapshot{bsnap, ssnap} {
		commits, timed := metric(t, snap, "sched_commits_total").Value, metric(t, snap, "sched_commit_seconds").Count
		if float64(timed) != commits {
			t.Errorf("sched_commit_seconds observed %d commit(s), sched_commits_total says %v", timed, commits)
		}
	}
}

// batchRecorder is an empty batch store that keeps only the row and
// replicate of every unit it is handed, batch by batch, and holds its
// first AppendBatch: it closes started on entry and returns once release
// is closed.
type batchRecorder struct {
	started, release chan struct{}
	batches          [][][2]int // row, replicate; read once Execute returned
}

func newBatchRecorder() *batchRecorder {
	return &batchRecorder{started: make(chan struct{}), release: make(chan struct{})}
}

func (b *batchRecorder) AppendBatch(recs []runstore.Record) error {
	if len(b.batches) == 0 {
		close(b.started)
		<-b.release
	}
	units := make([][2]int, len(recs))
	for i, rec := range recs {
		units[i] = [2]int{rec.Row, rec.Replicate}
	}
	b.batches = append(b.batches, units)
	return nil
}

func (b *batchRecorder) Append(rec runstore.Record) error {
	return b.AppendBatch([]runstore.Record{rec})
}
func (*batchRecorder) Lookup(string, string, int) (runstore.Record, bool) {
	return runstore.Record{}, false
}
func (*batchRecorder) ReplicateCount(string, string) int { return 0 }
func (*batchRecorder) Scan() iter.Seq2[runstore.Record, error] {
	return func(func(runstore.Record, error) bool) {}
}
func (*batchRecorder) Close() error { return nil }

// TestBacklogLandsInBatchesOfTheBound holds the committer's first
// AppendBatch while an instant single-worker runner piles finished units
// up behind it: one unit in flight, a full queue of MaxBatch, and one
// more blocked on its send. Released, the committer lands the queue as
// one batch of exactly MaxBatch units, never a larger one, and the store
// receives every unit once, in completion order — design order at
// Workers: 1. A small Execute gets a queue no deeper than its units, so a
// run of 10 units pays less for its committer than a queue fixed at 256
// slots alone cost, let alone one fixed at MaxBatch.
func TestBacklogLandsInBatchesOfTheBound(t *testing.T) {
	t.Run("backlog", func(t *testing.T) {
		const cells, reps = 300, 8 // more units than 1 + MaxBatch + 1
		const total = cells * reps
		store := newBatchRecorder()
		var calls atomic.Int32
		called := make(chan struct{}, total)
		run := func(a design.Assignment, rep int) (map[string]float64, error) {
			if calls.Add(1) == 2 {
				<-store.started // so the first batch is the first unit alone
			}
			called <- struct{}{}
			return wideRunner(a, rep)
		}
		e := newWideExperiment(t, cells, reps, run)
		s := New(Options{Workers: 1, Store: store})
		errc := make(chan error, 1)
		go func() {
			_, err := s.Execute(context.Background(), e)
			errc <- err
		}()
		for range 1 + MaxBatch + 1 { // in flight, queued, blocked on its send
			select {
			case <-called:
			case err := <-errc:
				t.Fatalf("Execute returned before the backlog built up: %v", err)
			}
		}
		close(store.release)
		if err := <-errc; err != nil {
			t.Fatal(err)
		}
		if st := s.LastStats(); st.Executed != total {
			t.Fatalf("executed %d unit(s), want %d", st.Executed, total)
		}
		if len(store.batches) < 2 || len(store.batches[0]) != 1 || len(store.batches[1]) != MaxBatch {
			sizes := make([]int, len(store.batches))
			for i, b := range store.batches {
				sizes[i] = len(b)
			}
			t.Fatalf("batch sizes %v, want 1 then MaxBatch (%d)", sizes, MaxBatch)
		}
		i := 0
		for n, batch := range store.batches {
			if len(batch) > MaxBatch {
				t.Errorf("batch %d carries %d units, more than MaxBatch (%d)", n, len(batch), MaxBatch)
			}
			for _, u := range batch {
				if want := [2]int{i / reps, i % reps}; u != want {
					t.Fatalf("unit %d landed as row %d replicate %d, want design order %v", i, u[0], u[1], want)
				}
				i++
			}
		}
		if i != total {
			t.Errorf("%d unit(s) landed, want %d", i, total)
		}
	})

	t.Run("small Execute", func(t *testing.T) {
		const cells, reps, runs = 5, 2, 50
		e := newWideExperiment(t, cells, reps, nil)
		// bytesPerRun is the heap a 10-unit Execute into store allocates.
		bytesPerRun := func(store runstore.Store) uint64 {
			s := New(Options{Workers: 1, Store: store})
			var before, after runtime.MemStats
			runtime.ReadMemStats(&before)
			for range runs {
				if _, err := s.Execute(context.Background(), e); err != nil {
					t.Fatal(err)
				}
			}
			runtime.ReadMemStats(&after)
			return (after.TotalAlloc - before.TotalAlloc) / runs
		}
		store := newBatchRecorder()
		close(store.release)
		bytesPerRun(store) // warm up
		batched := bytesPerRun(store)
		perUnit := bytesPerRun(appendOnly{store})
		// What a queue fixed at 256 slots, the bound before it was sized
		// for a round trip, cost on its own.
		fixed := 256 * uint64(unsafe.Sizeof(outcome{}))
		if batched > perUnit+fixed {
			t.Errorf("a 10-unit Execute allocates %d B with a committer, %d B without: the queue is deeper than the run", batched, perUnit)
		}
		p := New(Options{}).newPersistStage(e.Name, store, cells*reps, func(outcome) {})
		defer p.close()
		if got := cap(p.queue); got != cells*reps {
			t.Errorf("a %d-unit Execute got a %d-slot queue", cells*reps, got)
		}
	})
}

func metric(t *testing.T, snap obs.Snapshot, name string) obs.Metric {
	t.Helper()
	m, ok := snap.Get(name)
	if !ok {
		t.Fatalf("metric %s missing", name)
	}
	return m
}

// killChildEnv carries the journal dir into TestKillChild.
const killChildEnv = "SCHED_KILL_CHILD_DIR"

// The killed run: big enough that the child is still mid-run whenever
// the parent's kill lands.
const killCells, killReps = 2000, 10

// TestKillChild is the child half of TestKilledRunLeavesDesignOrderPrefix:
// a single-worker journaled run with a microsecond runner, so the
// committer is landing full batches when the kill arrives.
func TestKillChild(t *testing.T) {
	dir := os.Getenv(killChildEnv)
	if dir == "" {
		t.Skip("child-process body for TestKilledRunLeavesDesignOrderPrefix")
	}
	s := New(Options{Workers: 1, Open: journalDir(dir)})
	if _, err := s.Execute(context.Background(), newWideExperiment(t, killCells, killReps, nil)); err != nil {
		t.Fatal(err)
	}
}

// TestKilledRunLeavesDesignOrderPrefix is the crash contract of the
// committer, under a real SIGKILL at a seeded random instant: whatever
// was queued dies with the process, and the journal is a prefix, in
// completion order, of the finished units — which at Workers: 1 is
// design order — with at most a torn tail. Resume then executes exactly
// the complement, each unit once.
func TestKilledRunLeavesDesignOrderPrefix(t *testing.T) {
	const total = killCells * killReps
	for seed := uint64(1); seed <= 3; seed++ {
		dir := t.TempDir()
		path := filepath.Join(dir, runstore.SanitizeName("sched wide")+".jsonl")
		cmd := newChild(t, "TestKillChild", killChildEnv+"="+dir)
		if err := cmd.Start(); err != nil {
			t.Fatal(err)
		}
		// Wait for the run to be under way, then for the seeded instant.
		for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(100 * time.Microsecond) {
			if info, err := os.Stat(path); err == nil && info.Size() > 0 {
				break
			}
		}
		time.Sleep(time.Duration(rand.New(rand.NewPCG(seed, 0)).IntN(5000)) * time.Microsecond)
		cmd.Process.Kill()
		cmd.Wait()

		j, err := runstore.OpenDir(dir, "sched wide")
		if err != nil {
			t.Fatalf("seed %d: journal unreadable after the kill: %v", seed, err)
		}
		recs, err := runstore.Collect(j.Scan())
		j.Close()
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) == 0 {
			t.Fatalf("seed %d: the kill landed before anything was journaled", seed)
		}
		if len(recs) == total {
			t.Logf("seed %d: child finished before the kill; the prefix is the whole design", seed)
		}
		for i, rec := range recs {
			if rec.Row != i/killReps || rec.Replicate != i%killReps {
				t.Fatalf("seed %d: journal record %d is row %d replicate %d, want design order (row %d replicate %d)",
					seed, i, rec.Row, rec.Replicate, i/killReps, i%killReps)
			}
		}

		ran := make([]atomic.Int32, total)
		counting := func(a design.Assignment, rep int) (map[string]float64, error) {
			resp, err := wideRunner(a, rep)
			if err == nil {
				ran[int(resp["ms"])/100*killReps+rep].Add(1)
			}
			return resp, err
		}
		s := New(Options{Workers: 4, Open: journalDir(dir)})
		if _, err := s.Execute(context.Background(), newWideExperiment(t, killCells, killReps, counting)); err != nil {
			t.Fatal(err)
		}
		if st := s.LastStats(); st.Replayed != len(recs) || st.Executed != total-len(recs) {
			t.Errorf("seed %d: resume stats %+v, want %d replayed + %d executed", seed, st, len(recs), total-len(recs))
		}
		for i := range ran {
			want := int32(1)
			if i < len(recs) {
				want = 0
			}
			if got := ran[i].Load(); got != want {
				t.Fatalf("seed %d: unit %d ran %d time(s) on resume, want %d (journal held %d)", seed, i, got, want, len(recs))
			}
		}
	}
}

// closeCounter is a journal that counts its Close calls.
type closeCounter struct {
	*runstore.Journal
	closed *int
}

func (c closeCounter) Close() error {
	*c.closed++
	return c.Journal.Close()
}

// TestOpenOncePerExecute pins the one way the scheduler gets a store of
// its own: Options.Open is called once per Execute, with the
// experiment's name and before any unit runs, and the store it returns is
// closed when Execute returns, failed or not.
func TestOpenOncePerExecute(t *testing.T) {
	dir := t.TempDir()
	var opened []string
	closed := 0
	open := func(name string) (runstore.Store, error) {
		opened = append(opened, name)
		j, err := runstore.OpenDir(dir, name)
		if err != nil {
			return nil, err
		}
		return closeCounter{j, &closed}, nil
	}
	e := newExperiment(t, 3, nil)
	if _, err := New(Options{Workers: 2, Open: open}).Execute(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if len(opened) != 1 || opened[0] != e.Name || closed != 1 {
		t.Fatalf("after one Execute: opened %q, closed %d times; want [%q], 1", opened, closed, e.Name)
	}

	// A unit that fails for good fails the run; the store is closed all
	// the same. Replicate 3 is new to the journal, so it runs.
	failing := newExperiment(t, 4, func(a design.Assignment, rep int) (map[string]float64, error) {
		if rep == 3 {
			return nil, errors.New("unit failed")
		}
		return deterministicRunner(a, rep)
	})
	if _, err := New(Options{Workers: 2, Open: open}).Execute(context.Background(), failing); err == nil {
		t.Fatal("a failing unit should fail the run")
	}
	if len(opened) != 2 || opened[1] != failing.Name || closed != 2 {
		t.Fatalf("after a failed Execute: opened %q, closed %d times; want two opens, two closes", opened, closed)
	}

	// An Open error is the run's error, and no unit has run.
	var ran atomic.Int64
	counting := newExperiment(t, 2, func(a design.Assignment, rep int) (map[string]float64, error) {
		ran.Add(1)
		return deterministicRunner(a, rep)
	})
	noStore := func(string) (runstore.Store, error) { return nil, errors.New("no store today") }
	if _, err := New(Options{Workers: 2, Open: noStore}).Execute(context.Background(), counting); err == nil || !strings.Contains(err.Error(), "no store today") {
		t.Fatalf("Execute with a failing Open = %v, want its error", err)
	}
	if n := ran.Load(); n != 0 {
		t.Fatalf("%d unit(s) ran although Open failed", n)
	}

	// Store and Open together are refused before either is used.
	j, err := runstore.OpenDir(t.TempDir(), e.Name)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if _, err := New(Options{Store: j, Open: open}).Execute(context.Background(), counting); err == nil {
		t.Fatal("Store and Open together should be refused")
	}
	if len(opened) != 2 || ran.Load() != 0 {
		t.Fatalf("a refused Execute opened %q and ran %d unit(s)", opened[2:], ran.Load())
	}
}
