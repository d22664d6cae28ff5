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

// pools names the two ways to ask the one pool for a fixed number of
// replicates per cell: no Controller, and an adaptive one pinned at
// min = max = that number. Every contract test of the pool runs as both.
var pools = []string{"fixed", "dynamic"}

// withBudget returns opts for the named pool: unchanged for "fixed", with
// a fresh adaptive controller pinned at min = max = reps for "dynamic".
func withBudget(t *testing.T, pool string, reps int, opts Options) Options {
	t.Helper()
	if pool == "dynamic" {
		ctrl, err := adaptive.New(adaptive.Options{Min: reps, Max: reps})
		if err != nil {
			t.Fatal(err)
		}
		opts.Controller = ctrl
	}
	return opts
}

// TestCancellationDrainsAndLeavesWarmStartableJournal is the regression
// test for the context-cancellation contract: canceling mid-run (between
// unit completions) must stop work generation, drain the worker pool
// without leaking a single goroutine, return an error that is
// context.Canceled — also when the caller canceled with a cause of its
// own — leave the journal valid — no torn tail, every completed unit
// present, nothing else — and a warm-started re-run must replay exactly
// the journaled units, extend rather than re-execute them, and produce
// the same artifact a cold run produces.
func TestCancellationDrainsAndLeavesWarmStartableJournal(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) {
			t.Run("cancel", func(t *testing.T) {
				ctx, cancel := context.WithCancel(context.Background())
				testCancellationDrains(ctx, t, pool, cancel)
			})
			t.Run("cancel with cause", func(t *testing.T) {
				ctx, cancel := context.WithCancelCause(context.Background())
				testCancellationDrains(ctx, t, pool, func() { cancel(errors.New("operator said stop")) })
			})
		})
	}
}

func testCancellationDrains(ctx context.Context, t *testing.T, pool string, cancel func()) {
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	const cells, reps = 16, 2
	defer cancel()
	// The 6th runner call cancels, and every later call waits until it
	// has: a worker that counted the 6th call can lose its processor
	// before it cancels, and the other worker would then run the rest of
	// the design in the meantime.
	var completed atomic.Int64
	canceled := make(chan struct{})
	counting := func(a design.Assignment, rep int) (map[string]float64, error) {
		switch n := completed.Add(1); {
		case n == 6:
			cancel() // cancel between units, mid-run
			close(canceled)
		case n > 6:
			<-canceled
		}
		return wideRunner(a, rep)
	}

	reg := obs.NewRegistry()
	s := New(withBudget(t, pool, reps, Options{Workers: 2, Open: journalDir(dir), Metrics: reg}))
	_, err := s.Execute(ctx, newWideExperiment(t, cells, reps, counting))
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("want context.Canceled, got %v", err)
	}
	waitGoroutines(t, base)

	// The journal is valid: opens cleanly, no torn tail, holds every
	// unit that completed before the drain finished and no more. No unit
	// starts running after the 6th until the run is canceled, so at most
	// the units the dispatcher had handed out by then complete after it —
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

	// Warm start: the resumed run — against a fresh controller, if any —
	// replays exactly the journaled units, executes the rest, and matches
	// a cold run byte for byte.
	s2 := New(withBudget(t, pool, reps, Options{Workers: 2, Open: journalDir(dir)}))
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
	s := New(Options{Workers: 2, Open: journalDir(dir)})
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
