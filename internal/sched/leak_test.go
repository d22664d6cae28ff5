package sched

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// waitGoroutines polls until the goroutine count drops back to at most
// base, tolerating the runtime's own background goroutines.
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for {
		runtime.Gosched()
		if runtime.NumGoroutine() <= base || time.Now().After(deadline) {
			break
		}
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		t.Errorf("%d goroutines still alive, started with %d — the pool leaked", n, base)
	}
}

// TestTimeoutAbandonmentDoesNotLeakOrCorrupt is the regression test for
// the Options.Timeout abandonment contract: a timed-out attempt's
// goroutine must not deadlock the pool — whose dispatcher must keep
// draining in-flight outcomes after the first error — must drain once
// the runner unblocks, and its late result must never surface in Stats,
// the journal, or the ResultSet.
func TestTimeoutAbandonmentDoesNotLeakOrCorrupt(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) { testTimeoutAbandonment(t, pool) })
	}
}

func testTimeoutAbandonment(t *testing.T, pool string) {
	const reps = 2
	base := runtime.NumGoroutine()
	dir := t.TempDir()
	release := make(chan struct{})
	var lateFinishes atomic.Int64
	// The 16MB cells block until released — long past the timeout.
	blocking := func(a design.Assignment, rep int) (map[string]float64, error) {
		if a["memory"] == "16MB" {
			<-release
			lateFinishes.Add(1)
		}
		return deterministicRunner(a, rep)
	}

	s := New(withBudget(t, pool, reps, Options{Workers: 4, Timeout: 25 * time.Millisecond, Open: journalDir(dir)}))
	_, err := s.Execute(context.Background(), newExperiment(t, reps, blocking))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Fatalf("want timeout error, got %v", err)
	}
	// A failed Execute publishes no stats — the zero value is the
	// contract, not leftovers from whatever the abandoned attempts did.
	if st := s.LastStats(); st != (Stats{}) {
		t.Errorf("failed run published stats %+v, want none", st)
	}

	// Unblock the abandoned attempts; every goroutine must drain.
	close(release)
	waitGoroutines(t, base)
	if lateFinishes.Load() == 0 {
		t.Fatal("test runner never blocked — the scenario did not exercise abandonment")
	}

	// Late finishers must not have reached the journal: only fast cells
	// may be there.
	j, err := runstore.OpenDir(dir, "sched 2^2")
	if err != nil {
		t.Fatal(err)
	}
	journaled := j.Len()
	recs, err := runstore.Collect(j.Scan())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if rec.Assignment["memory"] == "16MB" {
			t.Errorf("abandoned unit %s/%d reached the journal", rec.Hash, rec.Replicate)
		}
	}
	j.Close()

	// A healthy warm-started re-run over the same journal must replay
	// exactly the journaled fast units, execute the rest, and publish
	// consistent stats — the abandoned attempts corrupted nothing.
	s2 := New(withBudget(t, pool, reps, Options{Workers: 4, Timeout: time.Second, Open: journalDir(dir)}))
	rs, err := s2.Execute(context.Background(), newExperiment(t, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	st := s2.LastStats()
	if st.Replayed != journaled || st.Executed != st.Units-journaled {
		t.Errorf("resume stats = %+v, want %d replayed of %d", st, journaled, st.Units)
	}
	cold, err := New(Options{Workers: 1}).Execute(context.Background(), newExperiment(t, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	if rs.CSV() != cold.CSV() {
		t.Errorf("resumed ResultSet differs from cold run:\n%s\nvs\n%s", rs.CSV(), cold.CSV())
	}
}

// thirdBatchFails is a journal whose third AppendBatch fails.
type thirdBatchFails struct {
	*runstore.Journal
	calls atomic.Int64
}

var errDiskGone = errors.New("disk gone")

func (s *thirdBatchFails) AppendBatch(recs []runstore.Record) error {
	if s.calls.Add(1) >= 3 {
		return errDiskGone
	}
	return s.Journal.AppendBatch(recs)
}

// TestAppendBatchFailureFailsTheRun: the first AppendBatch error is the
// run's error; units of the failed batch and units queued behind it are
// dropped unjournaled and uncounted; nothing leaks. Up to the failure
// the runner holds each unit back until every earlier one has been
// through AppendBatch, so batches are exactly one unit and the third
// unit is the one that fails — with and without a Controller.
func TestAppendBatchFailureFailsTheRun(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) {
			base := runtime.NumGoroutine()
			j, err := runstore.OpenDir(t.TempDir(), "sched wide")
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			store := &thirdBatchFails{Journal: j}
			var started atomic.Int64
			paced := func(a design.Assignment, rep int) (map[string]float64, error) {
				for n := started.Add(1); store.calls.Load() < min(n-1, 3); {
					time.Sleep(50 * time.Microsecond)
				}
				return wideRunner(a, rep)
			}
			reg := obs.NewRegistry()
			s := New(withBudget(t, pool, 2, Options{Workers: 1, Store: store, Metrics: reg}))
			_, err = s.Execute(context.Background(), newWideExperiment(t, 8, 2, paced))
			if !errors.Is(err, errDiskGone) {
				t.Fatalf("Execute = %v, want the AppendBatch failure", err)
			}
			waitGoroutines(t, base)
			if st := s.LastStats(); st != (Stats{}) {
				t.Errorf("failed run published stats %+v, want none", st)
			}
			if got := store.calls.Load(); got != 3 {
				t.Errorf("AppendBatch called %d time(s), want 3: units queued behind the failure must be dropped", got)
			}
			executed := reg.Counter("sched_units_executed_total", "").Value()
			if j.Len() != 2 || executed != 2 {
				t.Errorf("store holds %d record(s) and %d unit(s) counted executed, want 2 and 2", j.Len(), executed)
			}
		})
	}
}
