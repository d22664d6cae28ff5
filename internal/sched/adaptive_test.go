package sched

import (
	"context"
	"math"
	"os"
	"path/filepath"
	"sync/atomic"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// mixedVariance builds a 2-cell experiment where one cell is nearly
// noise-free and the other is deterministic but noisy: the adaptive
// controller should stop the stable cell at the minimum and spend the
// budget on the noisy one.
func mixedVariance(t testing.TB, reps int) *harness.Experiment {
	t.Helper()
	d, err := design.FullFactorial([]design.Factor{
		design.MustFactor("noise", "lo", "hi"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = reps
	return &harness.Experiment{
		Name: "mixed-variance", Design: d, Responses: []string{"ms"},
		Run: mixedVarianceRunner,
	}
}

// mixedVarianceRunner is deterministic in (assignment, replicate): the
// lo cell jitters by ±0.1%, the hi cell by ±20%.
func mixedVarianceRunner(a design.Assignment, rep int) (map[string]float64, error) {
	amp := 0.001
	if a["noise"] == "hi" {
		amp = 0.2
	}
	jitter := math.Sin(float64(rep)*2.399963) * amp // deterministic pseudo-noise
	return map[string]float64{"ms": 100 * (1 + jitter)}, nil
}

// TestAdaptiveEquivalence pins the degenerate case: with min=max=R the
// adaptive scheduler must be indistinguishable from the fixed scheduler
// at R replicates — byte-identical journal, identical CIs and reports.
func TestAdaptiveEquivalence(t *testing.T) {
	const reps = 3
	fixedDir, adaptDir := t.TempDir(), t.TempDir()

	fixed := New(Options{Workers: 1, JournalDir: fixedDir})
	fixedRS, err := fixed.Execute(context.Background(), newExperiment(t, reps, nil))
	if err != nil {
		t.Fatal(err)
	}

	ctrl, err := adaptive.New(adaptive.Options{Min: reps, Max: reps})
	if err != nil {
		t.Fatal(err)
	}
	adapt := New(Options{Workers: 1, JournalDir: adaptDir, Controller: ctrl})
	adaptRS, err := adapt.Execute(context.Background(), newExperiment(t, reps, nil))
	if err != nil {
		t.Fatal(err)
	}

	if fixedRS.CSV() != adaptRS.CSV() {
		t.Errorf("CSV differs:\nfixed:\n%s\nadaptive:\n%s", fixedRS.CSV(), adaptRS.CSV())
	}
	if fixedRS.Report() != adaptRS.Report() {
		t.Errorf("Report differs:\nfixed:\n%s\nadaptive:\n%s", fixedRS.Report(), adaptRS.Report())
	}
	fixedCI, err := fixedRS.CIs("MIPS", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	adaptCI, err := adaptRS.CIs("MIPS", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	for i := range fixedCI {
		if fixedCI[i] != adaptCI[i] {
			t.Errorf("row %d CI differs: fixed %v adaptive %v", i, fixedCI[i], adaptCI[i])
		}
	}

	read := func(dir string) []byte {
		t.Helper()
		entries, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
		if err != nil || len(entries) != 1 {
			t.Fatalf("journals in %s = %v (err %v)", dir, entries, err)
		}
		data, err := os.ReadFile(entries[0])
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	if string(read(fixedDir)) != string(read(adaptDir)) {
		t.Error("adaptive journal is not byte-identical to the fixed journal at min=max=R")
	}

	fs, as := fixed.LastStats(), adapt.LastStats()
	if as.Units != fs.Units || as.Executed != fs.Executed || as.FixedBudget != fs.FixedBudget {
		t.Errorf("stats differ: fixed %+v adaptive %+v", fs, as)
	}
}

// TestAdaptiveSavesReplicates is the mixed-variance acceptance demo:
// the same CI targets with measurably fewer replicates than the fixed
// budget, the savings concentrated on the stable cell.
func TestAdaptiveSavesReplicates(t *testing.T) {
	const fixedReps = 40
	ctrl, err := adaptive.New(adaptive.Options{Rel: 0.05, Min: 3, Max: fixedReps})
	if err != nil {
		t.Fatal(err)
	}
	s := New(Options{Workers: 4, Controller: ctrl})
	rs, err := s.Execute(context.Background(), mixedVariance(t, fixedReps))
	if err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.FixedBudget != 2*fixedReps {
		t.Fatalf("FixedBudget = %d, want %d", st.FixedBudget, 2*fixedReps)
	}
	if st.Units >= st.FixedBudget/2 {
		t.Errorf("adaptive spent %d of %d replicates — no measurable saving", st.Units, st.FixedBudget)
	}
	cells := s.CellStats()
	if len(cells) != 2 {
		t.Fatalf("CellStats = %d cells, want 2", len(cells))
	}
	for _, c := range cells {
		switch c.Assignment["noise"] {
		case "lo":
			if c.Spent() != 3 {
				t.Errorf("stable cell spent %d replicates, want the minimum 3", c.Spent())
			}
		case "hi":
			if c.Spent() <= 3 {
				t.Errorf("noisy cell spent %d replicates, want more than the minimum", c.Spent())
			}
			// The noisy cell must actually reach the 5% target — the
			// stopping rule trades replicates for precision, not for
			// precision claims it cannot back.
			iv, err := rs.CIs("ms", 0.95)
			if err != nil {
				t.Fatal(err)
			}
			if rel := iv[c.Row].RelHalfWidth(); rel > 0.05 {
				t.Errorf("noisy cell stopped at rel=%.3f > 0.05 with budget to spare", rel)
			}
		}
		if c.Note == "" {
			t.Errorf("cell %s has no budget note", c.Assignment)
		}
	}
	// Every row must hold exactly the replicates the budget says.
	for _, c := range cells {
		if got := len(rs.Rows[c.Row].Reps); got != c.Spent() {
			t.Errorf("row %d has %d reps, CellStats says %d", c.Row, got, c.Spent())
		}
	}
}

// TestAdaptiveWarmStartKeepsBudget journals an adaptive run, then
// re-runs it: every replicate must replay, none execute, and the
// replicate counts per cell must match the first run exactly.
func TestAdaptiveWarmStartKeepsBudget(t *testing.T) {
	dir := t.TempDir()
	newCtrl := func() *adaptive.Controller {
		ctrl, err := adaptive.New(adaptive.Options{Rel: 0.05, Min: 3, Max: 40})
		if err != nil {
			t.Fatal(err)
		}
		return ctrl
	}
	s1 := New(Options{Workers: 4, JournalDir: dir, Controller: newCtrl()})
	rs1, err := s1.Execute(context.Background(), mixedVariance(t, 40))
	if err != nil {
		t.Fatal(err)
	}
	st1 := s1.LastStats()
	if st1.Executed == 0 || st1.Replayed != 0 {
		t.Fatalf("cold stats = %+v", st1)
	}

	var live atomic.Int64
	counted := func(a design.Assignment, rep int) (map[string]float64, error) {
		live.Add(1)
		return mixedVarianceRunner(a, rep)
	}
	e2 := mixedVariance(t, 40)
	e2.Run = counted
	s2 := New(Options{Workers: 4, JournalDir: dir, Controller: newCtrl()})
	rs2, err := s2.Execute(context.Background(), e2)
	if err != nil {
		t.Fatal(err)
	}
	st2 := s2.LastStats()
	if live.Load() != 0 || st2.Executed != 0 {
		t.Errorf("warm start executed %d live units (stats %+v), want pure replay", live.Load(), st2)
	}
	if st2.Replayed != st1.Executed {
		t.Errorf("Replayed = %d, want the cold run's %d", st2.Replayed, st1.Executed)
	}
	if rs1.CSV() != rs2.CSV() || rs1.Report() != rs2.Report() {
		t.Error("warm-started adaptive ResultSet differs from the cold one")
	}
	c1, c2 := s1.CellStats(), s2.CellStats()
	for i := range c1 {
		if c1[i].Spent() != c2[i].Spent() {
			t.Errorf("cell %d budget drifted on resume: %d -> %d", i, c1[i].Spent(), c2[i].Spent())
		}
		if c2[i].Replayed != c2[i].Spent() {
			t.Errorf("cell %d: %d of %d replicates replayed, want all", i, c2[i].Replayed, c2[i].Spent())
		}
	}
}

// TestAdaptivePrioritySchedulesFlaggedFirst: a gate-flagged cell's units
// must be handed to the pool before any unflagged cell's.
func TestAdaptivePrioritySchedulesFlaggedFirst(t *testing.T) {
	ctrl, err := adaptive.New(adaptive.Options{Rel: 0.05, Min: 2, Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	flagged := runstore.CellKey("mixed-variance", runstore.AssignmentHash(map[string]string{"noise": "hi"}))
	ctrl.Prioritize(flagged)

	var order []string
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		order = append(order, a["noise"]) // Workers: 1 — appends are serial
		return mixedVarianceRunner(a, rep)
	}
	e := mixedVariance(t, 4)
	e.Run = run
	s := New(Options{Workers: 1, Controller: ctrl})
	if _, err := s.Execute(context.Background(), e); err != nil {
		t.Fatal(err)
	}
	if len(order) < 4 {
		t.Fatalf("executed %d units, want at least the two min batches", len(order))
	}
	if order[0] != "hi" || order[1] != "hi" {
		t.Errorf("first scheduled units = %v, want the flagged hi cell first", order[:4])
	}
}
