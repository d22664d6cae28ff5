package sched

import (
	"context"
	"errors"
	"fmt"
	"os"
	"sync"
	"testing"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// TestCrashResume simulates a run killed mid-journal: the first pass
// fails partway through (leaving a journal with some completed units and
// a torn trailing line, as a real crash during an append would), then a
// second pass over the same journal must replay every completed unit
// without re-executing it and produce a ResultSet byte-identical to a
// cold sequential run.
func TestCrashResume(t *testing.T) {
	dir := t.TempDir()
	const reps = 3

	// Pass 1: the 16MB/2KB corner always crashes; everything else
	// completes and is journaled before the failure propagates.
	crashing := func(a design.Assignment, rep int) (map[string]float64, error) {
		if a["memory"] == "16MB" && a["cache"] == "2KB" {
			return nil, errors.New("simulated crash")
		}
		return deterministicRunner(a, rep)
	}
	s1 := New(Options{Workers: 2, JournalDir: dir})
	if _, err := s1.Execute(context.Background(), newExperiment(t, reps, crashing)); err == nil {
		t.Fatal("pass 1 should fail")
	}

	// Find the journal and note which units it completed.
	j, err := runstore.OpenDir(dir, "sched 2^2")
	if err != nil {
		t.Fatal(err)
	}
	journaled := map[string]bool{}
	recs, err := runstore.Collect(j.Scan())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		journaled[fmt.Sprintf("%s/%d", rec.Hash, rec.Replicate)] = true
	}
	path := j.Path()
	j.Close()
	if len(journaled) == 0 {
		t.Fatal("pass 1 should have journaled at least one completed unit")
	}
	if len(journaled) >= 4*reps {
		t.Fatalf("pass 1 journaled %d units, the crashing corner should be absent", len(journaled))
	}

	// Tear the journal tail, as a kill -9 mid-append would.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"experiment":"sched 2^2","row":3,"repl`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	// Pass 2: healthy runner. Completed units must be replayed, not
	// re-executed.
	var mu sync.Mutex
	executed := map[string]bool{}
	healthy := func(a design.Assignment, rep int) (map[string]float64, error) {
		mu.Lock()
		executed[fmt.Sprintf("%s/%d", runstore.AssignmentHash(a), rep)] = true
		mu.Unlock()
		return deterministicRunner(a, rep)
	}
	s2 := New(Options{Workers: 4, JournalDir: dir})
	resumed, err := s2.Execute(context.Background(), newExperiment(t, reps, healthy))
	if err != nil {
		t.Fatal(err)
	}
	st := s2.LastStats()
	if st.Replayed != len(journaled) {
		t.Errorf("Replayed = %d, want %d (every journaled unit)", st.Replayed, len(journaled))
	}
	if st.Executed != 4*reps-len(journaled) {
		t.Errorf("Executed = %d, want %d", st.Executed, 4*reps-len(journaled))
	}
	for key := range executed {
		if journaled[key] {
			t.Errorf("unit %s was journaled but re-executed", key)
		}
	}
	for key := range journaled {
		if executed[key] {
			t.Errorf("unit %s was replayed and also executed", key)
		}
	}

	// The resumed ResultSet must be byte-identical to a cold sequential
	// run of the same experiment.
	cold, err := harness.Sequential{}.Execute(context.Background(), newExperiment(t, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CSV() != resumed.CSV() {
		t.Errorf("CSV differs after resume:\ncold:\n%s\nresumed:\n%s", cold.CSV(), resumed.CSV())
	}
	if cold.Report() != resumed.Report() {
		t.Errorf("Report differs after resume:\ncold:\n%s\nresumed:\n%s", cold.Report(), resumed.Report())
	}

	// Pass 3: nothing left to execute.
	s3 := New(Options{Workers: 4, JournalDir: dir})
	if _, err := s3.Execute(context.Background(), newExperiment(t, reps, healthy)); err != nil {
		t.Fatal(err)
	}
	if st := s3.LastStats(); st.Executed != 0 || st.Replayed != 4*reps {
		t.Errorf("pass 3 stats = %+v, want pure replay", st)
	}
}

// TestResumeOverHoleRunsExactlyTheMissingUnit: replay is decided unit by
// unit, so over a store with a hole — replicates 0 and 2 of a cell
// stored, 1 missing, as a crashed multi-worker run can leave it — a
// resume runs exactly the missing replicate, whatever the budget.
func TestResumeOverHoleRunsExactlyTheMissingUnit(t *testing.T) {
	const cells, reps = 4, 3
	coldDir := t.TempDir()
	cold, err := New(Options{Workers: 1, JournalDir: coldDir}).Execute(context.Background(), newWideExperiment(t, cells, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	full, err := runstore.OpenDir(coldDir, "sched wide")
	if err != nil {
		t.Fatal(err)
	}
	recs, err := runstore.Collect(full.Scan())
	full.Close()
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) {
			dir := t.TempDir()
			holed, err := runstore.OpenDir(dir, "sched wide")
			if err != nil {
				t.Fatal(err)
			}
			for _, rec := range recs {
				if rec.Row == 1 && rec.Replicate == 1 {
					continue
				}
				if err := holed.Append(rec); err != nil {
					t.Fatal(err)
				}
			}
			holed.Close()

			var mu sync.Mutex
			var ran []string
			counting := func(a design.Assignment, rep int) (map[string]float64, error) {
				mu.Lock()
				ran = append(ran, fmt.Sprintf("%s/%d", a["f"], rep))
				mu.Unlock()
				return wideRunner(a, rep)
			}
			s := New(withBudget(t, pool, reps, Options{Workers: 2, JournalDir: dir}))
			rs, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, counting))
			if err != nil {
				t.Fatal(err)
			}
			if len(ran) != 1 || ran[0] != "L01/1" {
				t.Errorf("resume ran %v, want exactly the missing unit L01/1", ran)
			}
			if st := s.LastStats(); st.Executed != 1 || st.Replayed != cells*reps-1 || st.Units != cells*reps {
				t.Errorf("resume stats = %+v, want 1 executed + %d replayed", st, cells*reps-1)
			}
			if rs.CSV() != cold.CSV() {
				t.Errorf("resumed ResultSet differs from cold run:\n%s\nvs\n%s", rs.CSV(), cold.CSV())
			}
		})
	}
}

// TestStoreBeyondBudgetIsNotReplayed: a row holds what the budget asked
// for, not everything the store has — over a store written at 3
// replicates, a run at 2 carries exactly 2 per row and is the artifact a
// cold run at 2 produces.
func TestStoreBeyondBudgetIsNotReplayed(t *testing.T) {
	const cells, stored, reps = 4, 3, 2
	dir := t.TempDir()
	if _, err := New(Options{Workers: 2, JournalDir: dir}).Execute(context.Background(), newWideExperiment(t, cells, stored, nil)); err != nil {
		t.Fatal(err)
	}
	cold, err := harness.Sequential{}.Execute(context.Background(), newWideExperiment(t, cells, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	for _, pool := range pools {
		t.Run(pool, func(t *testing.T) {
			s := New(withBudget(t, pool, reps, Options{Workers: 2, JournalDir: dir}))
			rs, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, func(design.Assignment, int) (map[string]float64, error) {
				return nil, errors.New("nothing should execute: the store holds more than the budget")
			}))
			if err != nil {
				t.Fatal(err)
			}
			for _, row := range rs.Rows {
				if len(row.Reps) != reps {
					t.Errorf("row %s carries %d replicate(s), want the budget's %d", row.Assignment, len(row.Reps), reps)
				}
			}
			if st := s.LastStats(); st.Executed != 0 || st.Replayed != cells*reps || st.Units != cells*reps {
				t.Errorf("stats = %+v, want %d replayed and nothing else", st, cells*reps)
			}
			if rs.CSV() != cold.CSV() || rs.Report() != cold.Report() {
				t.Errorf("ResultSet differs from a cold run at %d replicates:\n%s\nvs\n%s", reps, rs.CSV(), cold.CSV())
			}
		})
	}
}
