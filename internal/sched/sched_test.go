package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/design"
	"repro/internal/harness"
)

var _ harness.Executor = (*Scheduler)(nil)

// newExperiment builds a deterministic 2^2 x reps experiment whose
// response depends only on (assignment, replicate), so sequential and
// concurrent executions must agree exactly.
func newExperiment(t *testing.T, reps int, run harness.RunFunc) *harness.Experiment {
	t.Helper()
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = reps
	if run == nil {
		run = deterministicRunner
	}
	return &harness.Experiment{
		Name: "sched 2^2", Design: d, Responses: []string{"MIPS"}, Run: run,
	}
}

func deterministicRunner(a design.Assignment, rep int) (map[string]float64, error) {
	base := map[string]float64{
		"cache=1KB memory=4MB":  15,
		"cache=2KB memory=4MB":  25,
		"cache=1KB memory=16MB": 45,
		"cache=2KB memory=16MB": 75,
	}[a.String()]
	if base == 0 {
		return nil, fmt.Errorf("unknown assignment %s", a)
	}
	return map[string]float64{"MIPS": base + float64(rep)*0.25}, nil
}

func TestSchedulerMatchesSequentialByteForByte(t *testing.T) {
	seqRS, err := harness.Sequential{}.Execute(context.Background(), newExperiment(t, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 4})
	conRS, err := s.Execute(context.Background(), newExperiment(t, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if seqRS.CSV() != conRS.CSV() {
		t.Errorf("CSV differs:\nsequential:\n%s\nconcurrent:\n%s", seqRS.CSV(), conRS.CSV())
	}
	if seqRS.Report() != conRS.Report() {
		t.Errorf("Report differs:\nsequential:\n%s\nconcurrent:\n%s", seqRS.Report(), conRS.Report())
	}
	st := s.LastStats()
	if st.Units != 12 || st.Executed != 12 || st.Replayed != 0 {
		t.Errorf("stats = %+v", st)
	}
}

func TestSchedulerBoundsParallelism(t *testing.T) {
	const workers = 3
	var cur, peak atomic.Int64
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		n := cur.Add(1)
		for {
			p := peak.Load()
			if n <= p || peak.CompareAndSwap(p, n) {
				break
			}
		}
		time.Sleep(2 * time.Millisecond)
		cur.Add(-1)
		return deterministicRunner(a, rep)
	}
	if _, err := New(Options{Workers: workers}).Execute(context.Background(), newExperiment(t, 4, run)); err != nil {
		t.Fatal(err)
	}
	if p := peak.Load(); p > workers {
		t.Errorf("observed %d concurrent units, workers = %d", p, workers)
	}
	if p := peak.Load(); p < 2 {
		t.Errorf("observed %d concurrent units, expected some overlap", p)
	}
}

// TestSchedulerRetries: a retry budget absorbs transient failures — one
// per unit, or a single one — and counts them; an exhausted budget
// aborts the run with the last error.
func TestSchedulerRetries(t *testing.T) {
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) { testSchedulerRetries(t, pool) })
	}
}

func testSchedulerRetries(t *testing.T, pool string) {
	var mu sync.Mutex
	failed := map[string]bool{}
	flaky := func(a design.Assignment, rep int) (map[string]float64, error) {
		key := fmt.Sprintf("%s/%d", a, rep)
		mu.Lock()
		first := !failed[key]
		failed[key] = true
		mu.Unlock()
		if first {
			return nil, errors.New("transient failure")
		}
		return deterministicRunner(a, rep)
	}
	s := New(withBudget(t, pool, 2, Options{Workers: 2, Retries: 1}))
	rs, err := s.Execute(context.Background(), newExperiment(t, 2, flaky))
	if err != nil {
		t.Fatalf("retries should absorb one failure per unit: %v", err)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("rows = %d", len(rs.Rows))
	}
	if st := s.LastStats(); st.Retried != 8 {
		t.Errorf("Retried = %d, want 8 (one per unit)", st.Retried)
	}

	// A single failure costs a single retry.
	var failedOnce atomic.Bool
	once := func(a design.Assignment, rep int) (map[string]float64, error) {
		if a["memory"] == "16MB" && rep == 0 && !failedOnce.Swap(true) {
			return nil, os.ErrDeadlineExceeded
		}
		return deterministicRunner(a, rep)
	}
	s = New(withBudget(t, pool, 2, Options{Workers: 2, Retries: 1}))
	if _, err := s.Execute(context.Background(), newExperiment(t, 2, once)); err != nil {
		t.Fatalf("one retry should absorb the single failure: %v", err)
	}
	if st := s.LastStats(); st.Retried != 1 {
		t.Errorf("Retried = %d, want 1", st.Retried)
	}

	// Exhausted retries surface the last error.
	always := func(design.Assignment, int) (map[string]float64, error) {
		return nil, errors.New("permanent failure")
	}
	if _, err := New(withBudget(t, pool, 1, Options{Workers: 2, Retries: 2})).Execute(context.Background(), newExperiment(t, 1, always)); err == nil {
		t.Error("permanent failure should abort the run")
	} else if !strings.Contains(err.Error(), "attempts") {
		t.Errorf("error should mention attempts: %v", err)
	}
}

func TestSchedulerTimeout(t *testing.T) {
	slow := func(a design.Assignment, rep int) (map[string]float64, error) {
		if a["memory"] == "16MB" {
			time.Sleep(time.Second)
		}
		return deterministicRunner(a, rep)
	}
	s := New(Options{Workers: 4, Timeout: 25 * time.Millisecond})
	_, err := s.Execute(context.Background(), newExperiment(t, 1, slow))
	if err == nil || !strings.Contains(err.Error(), "timed out") {
		t.Errorf("want timeout error, got %v", err)
	}
}

func TestSchedulerWarmStartSkipsJournaledUnits(t *testing.T) {
	dir := t.TempDir()
	var calls atomic.Int64
	counted := func(a design.Assignment, rep int) (map[string]float64, error) {
		calls.Add(1)
		return deterministicRunner(a, rep)
	}

	s1 := New(Options{Workers: 4, JournalDir: dir})
	rs1, err := s1.Execute(context.Background(), newExperiment(t, 3, counted))
	if err != nil {
		t.Fatal(err)
	}
	if st := s1.LastStats(); st.Executed != 12 || st.Replayed != 0 {
		t.Fatalf("cold stats = %+v", st)
	}
	if calls.Load() != 12 {
		t.Fatalf("cold run calls = %d", calls.Load())
	}

	// Second run, fresh scheduler, same journal dir: everything replays.
	calls.Store(0)
	s2 := New(Options{Workers: 4, JournalDir: dir})
	rs2, err := s2.Execute(context.Background(), newExperiment(t, 3, counted))
	if err != nil {
		t.Fatal(err)
	}
	if st := s2.LastStats(); st.Executed != 0 || st.Replayed != 12 {
		t.Errorf("warm stats = %+v", st)
	}
	if calls.Load() != 0 {
		t.Errorf("warm run executed %d units, want 0", calls.Load())
	}
	if rs1.CSV() != rs2.CSV() || rs1.Report() != rs2.Report() {
		t.Error("replayed ResultSet differs from the original")
	}
}

func TestSchedulerReExecutesWhenJournalLacksResponse(t *testing.T) {
	dir := t.TempDir()
	e := newExperiment(t, 1, nil)
	s := New(Options{Workers: 2, JournalDir: dir})
	if _, err := s.Execute(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	// Same journal, but the experiment now declares an extra response the
	// journaled records lack: every unit must re-execute.
	e2 := newExperiment(t, 1, func(a design.Assignment, rep int) (map[string]float64, error) {
		resp, err := deterministicRunner(a, rep)
		if err != nil {
			return nil, err
		}
		resp["watts"] = 100
		return resp, nil
	})
	e2.Responses = []string{"MIPS", "watts"}
	s2 := New(Options{Workers: 2, JournalDir: dir})
	if _, err := s2.Execute(context.Background(), e2); err != nil {
		t.Fatal(err)
	}
	if st := s2.LastStats(); st.Replayed != 0 || st.Executed != 4 {
		t.Errorf("stats = %+v, want full re-execution", st)
	}
}
