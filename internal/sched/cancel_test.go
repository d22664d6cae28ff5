package sched

import (
	"context"
	"errors"
	"runtime"
	"sync/atomic"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// TestCancellationDrainsAndLeavesWarmStartableJournal is the regression
// test for the context-cancellation contract: canceling mid-run (between
// unit completions) must drain the worker pool without leaking a single
// goroutine, leave the journal valid — no torn tail, every completed
// unit present, nothing else — and a warm-started re-run must replay
// exactly the journaled units and produce the same artifact a cold run
// produces.
func TestCancellationDrainsAndLeavesWarmStartableJournal(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	const cells, reps = 16, 2
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	counting := func(a design.Assignment, rep int) (map[string]float64, error) {
		if completed.Add(1) == 6 {
			cancel() // cancel between units, mid-run
		}
		return wideRunner(a, rep)
	}

	reg := obs.NewRegistry()
	s := New(Options{Workers: 2, JournalDir: dir, Metrics: reg})
	_, err := s.Execute(ctx, newWideExperiment(t, cells, reps, counting))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitGoroutines(t, base)

	// The journal is valid: opens cleanly, no torn tail, holds every
	// unit that completed before the drain finished and no more. With 2
	// workers, at most the 2 in-flight units complete after the 6th —
	// far fewer than the full design.
	j, err := runstore.OpenDir(dir, "sched wide")
	if err != nil {
		t.Fatalf("journal invalid after cancellation: %v", err)
	}
	if j.Torn() {
		t.Error("canceled run left a torn journal tail")
	}
	journaled := j.Len()
	j.Close()
	if journaled == 0 || journaled >= cells*reps {
		t.Fatalf("journal holds %d units, want some but not all %d", journaled, cells*reps)
	}
	// Everything the workers queued before the drain was landed, and
	// nothing was counted that was not: complete means appended.
	if executed := reg.Counter("sched_units_executed_total", "").Value(); executed != int64(journaled) {
		t.Errorf("%d unit(s) counted executed, journal holds %d", executed, journaled)
	}

	// Warm start: the resumed run replays exactly the journaled units,
	// executes the rest, and matches a cold run byte for byte.
	s2 := New(Options{Workers: 2, JournalDir: dir})
	rs, err := s2.Execute(context.Background(), newWideExperiment(t, cells, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := s2.LastStats()
	if st.Replayed != journaled {
		t.Errorf("resume replayed %d units, journal held %d", st.Replayed, journaled)
	}
	if st.Executed != cells*reps-journaled {
		t.Errorf("resume executed %d units, want %d", st.Executed, cells*reps-journaled)
	}
	cold, err := New(Options{Workers: 1}).Execute(context.Background(), newWideExperiment(t, cells, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rs.CSV() != cold.CSV() {
		t.Errorf("resumed ResultSet differs from cold run:\n%s\nvs\n%s", rs.CSV(), cold.CSV())
	}
}

// TestCancellationBeforeStartRunsNothing covers the already-canceled
// context: Execute must not run a single unit, and with a store
// configured must leave it empty rather than half-written.
func TestCancellationBeforeStartRunsNothing(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var ran atomic.Int64
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		ran.Add(1)
		return wideRunner(a, rep)
	}
	s := New(Options{Workers: 2, JournalDir: dir})
	if _, err := s.Execute(ctx, newWideExperiment(t, 4, 2, run)); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	if n := ran.Load(); n != 0 {
		t.Errorf("%d units ran under an already-canceled context", n)
	}
	j, err := runstore.OpenDir(dir, "sched wide")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 0 {
		t.Errorf("journal holds %d units from a run that never started", j.Len())
	}
}

// TestAdaptiveCancellationDrainsAndResumes exercises the dynamic
// (controller-driven) pool: cancellation at a batch boundary must stop
// work generation, drain in-flight units into the journal, leak no
// goroutine, and leave a warm-startable journal an adaptive resume
// extends rather than re-executes.
func TestAdaptiveCancellationDrainsAndResumes(t *testing.T) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var completed atomic.Int64
	counting := func(a design.Assignment, rep int) (map[string]float64, error) {
		if completed.Add(1) == 5 {
			cancel()
		}
		return mixedVarianceRunner(a, rep)
	}
	ctrl, err := adaptive.New(adaptive.Options{Min: 3, Max: 12})
	if err != nil {
		t.Fatal(err)
	}
	e := mixedVariance(t, 12)
	e.Run = counting
	s := New(Options{Workers: 2, Controller: ctrl, JournalDir: dir})
	if _, err := s.Execute(ctx, e); !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitGoroutines(t, base)

	j, err := runstore.OpenDir(dir, "mixed-variance")
	if err != nil {
		t.Fatalf("journal invalid after adaptive cancellation: %v", err)
	}
	if j.Torn() {
		t.Error("canceled adaptive run left a torn journal tail")
	}
	journaled := j.Len()
	j.Close()
	if journaled == 0 {
		t.Fatal("no units journaled before cancellation")
	}

	// Adaptive resume: replays the journaled prefix against a fresh
	// controller and completes the run cleanly.
	ctrl2, err := adaptive.New(adaptive.Options{Min: 3, Max: 12})
	if err != nil {
		t.Fatal(err)
	}
	e2 := mixedVariance(t, 12)
	s2 := New(Options{Workers: 2, Controller: ctrl2, JournalDir: dir})
	if _, err := s2.Execute(context.Background(), e2); err != nil {
		t.Fatal(err)
	}
	if st := s2.LastStats(); st.Replayed == 0 {
		t.Errorf("adaptive resume replayed nothing, stats %+v", st)
	}
}
