package sched

import (
	"bytes"
	"context"
	"math/rand/v2"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"
	"time"

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
	s := New(Options{Workers: 1, JournalDir: dir})
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
		s := New(Options{Workers: 4, JournalDir: dir})
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
