package runstore

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"repro/internal/stats"
)

func summaryFor(t *testing.T, base map[string]float64, noise []float64) *Summary {
	t.Helper()
	var recs []Record
	row := 0
	for _, name := range []string{"lo", "hi"} {
		for repIdx, n := range noise {
			recs = append(recs, rec("exp", row, repIdx, map[string]string{"f": name},
				map[string]float64{"t": base[name] + n}))
		}
		row++
	}
	sums := Summarize(recs)
	if len(sums) != 1 {
		t.Fatalf("summaries = %d, want 1", len(sums))
	}
	return sums[0]
}

func TestSummarizeGroupsAndSorts(t *testing.T) {
	a1 := map[string]string{"f": "lo"}
	a2 := map[string]string{"f": "hi"}
	recs := []Record{
		rec("b-exp", 0, 1, a1, map[string]float64{"t": 11}),
		rec("b-exp", 0, 0, a1, map[string]float64{"t": 10}),
		rec("a-exp", 0, 0, a2, map[string]float64{"t": 5}),
	}
	sums := Summarize(recs)
	if len(sums) != 2 || sums[0].Experiment != "a-exp" || sums[1].Experiment != "b-exp" {
		t.Fatalf("summaries = %+v", sums)
	}
	rows := sums[1].Rows
	if len(rows) != 1 || rows[0].Response != "t" {
		t.Fatalf("rows = %+v", rows)
	}
	// Replicate order, not journal order.
	if rows[0].Values[0] != 10 || rows[0].Values[1] != 11 {
		t.Errorf("values = %v, want [10 11]", rows[0].Values)
	}
}

func TestGateVerdicts(t *testing.T) {
	noise := []float64{-0.2, 0, 0.2}
	baseline := summaryFor(t, map[string]float64{"lo": 10, "hi": 20}, noise)

	// Same distribution: everything unchanged.
	same := summaryFor(t, map[string]float64{"lo": 10.1, "hi": 19.9}, noise)
	rep, err := Gate(baseline, same, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Regressions()) != 0 {
		t.Errorf("no regression expected: %s", rep)
	}

	// "hi" cell 50% slower: regression; "lo" cell 50% faster: improvement.
	shifted := summaryFor(t, map[string]float64{"lo": 5, "hi": 30}, noise)
	rep, err = Gate(baseline, shifted, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	regs := rep.Regressions()
	if len(regs) != 1 || regs[0].Assignment["f"] != "hi" {
		t.Fatalf("regressions = %+v", regs)
	}
	if regs[0].DeltaPct < 40 || regs[0].DeltaPct > 60 {
		t.Errorf("DeltaPct = %g, want ~50", regs[0].DeltaPct)
	}
	var improved int
	for _, f := range rep.Findings {
		if f.Verdict == Improved {
			improved++
		}
	}
	if improved != 1 {
		t.Errorf("improved = %d, want 1", improved)
	}
	out := rep.String()
	for _, want := range []string{"REGRESSED", "improved", "f=hi", "f=lo", "regressed 1"} {
		if !strings.Contains(out, want) {
			t.Errorf("report missing %q:\n%s", want, out)
		}
	}
}

func TestGateMissingAndAdded(t *testing.T) {
	noise := []float64{-0.1, 0, 0.1}
	baseline := summaryFor(t, map[string]float64{"lo": 10, "hi": 20}, noise)
	var recs []Record
	for repIdx, n := range noise {
		recs = append(recs, rec("exp", 0, repIdx, map[string]string{"f": "lo"},
			map[string]float64{"t": 10 + n}))
		recs = append(recs, rec("exp", 1, repIdx, map[string]string{"f": "mid"},
			map[string]float64{"t": 15 + n}))
	}
	current := Summarize(recs)[0]
	rep, err := Gate(baseline, current, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	counts := map[Verdict]int{}
	for _, f := range rep.Findings {
		counts[f.Verdict]++
	}
	if counts[Missing] != 1 || counts[Added] != 1 || counts[Unchanged] != 1 {
		t.Errorf("verdict counts = %v", counts)
	}
}

func TestGateSingleReplicateToleranceBand(t *testing.T) {
	mk := func(v float64) *Summary {
		return Summarize([]Record{
			rec("exp", 0, 0, map[string]string{"f": "lo"}, map[string]float64{"t": v}),
		})[0]
	}
	baseline := mk(100)
	// Within the 5% default tolerance: unchanged.
	rep, err := Gate(baseline, mk(104), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Findings[0].Verdict != Unchanged {
		t.Errorf("4%% shift at 5%% tolerance: %v", rep.Findings[0].Verdict)
	}
	// Far outside: regressed.
	rep, err = Gate(baseline, mk(150), GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Findings[0].Verdict != Regressed {
		t.Errorf("50%% shift should regress: %v", rep.Findings[0].Verdict)
	}
}

func TestGateRejectsInvalidOptions(t *testing.T) {
	s := summaryFor(t, map[string]float64{"lo": 10, "hi": 20}, []float64{-0.1, 0, 0.1})
	for _, opt := range []GateOptions{
		{Confidence: 95},   // percent instead of fraction
		{Confidence: -0.5}, // negative
		{Tolerance: -0.1},  // negative
		{Confidence: math.NaN()},
		{Tolerance: math.NaN()},
		{Tolerance: math.Inf(1)},
	} {
		if _, err := Gate(s, s, opt); err == nil {
			t.Errorf("options %+v should be rejected", opt)
		}
	}
}

func TestGateExperimentMismatch(t *testing.T) {
	a := &Summary{Experiment: "a"}
	b := &Summary{Experiment: "b"}
	if _, err := Gate(a, b, GateOptions{}); err == nil {
		t.Error("gating across experiments should error")
	}
	if _, err := Gate(nil, a, GateOptions{}); err == nil {
		t.Error("nil baseline should error")
	}
}

// BenchmarkGate gates a 10 000-cell run against its baseline: five
// replicates a cell, so two t-intervals per finding, all at one n.
func BenchmarkGate(b *testing.B) {
	const cells = 10_000
	summary := func(shift float64) *Summary {
		s := &Summary{Experiment: "gate", Rows: make([]SummaryRow, cells)}
		for i := range s.Rows {
			a := map[string]string{"cell": fmt.Sprint(i)}
			v := float64(100+i%50) + shift
			s.Rows[i] = SummaryRow{
				Hash: AssignmentHash(a), Assignment: a, Response: "ms",
				Values: []float64{v, v + 1, v - 1, v + 0.5, v - 0.5},
			}
		}
		return s
	}
	baseline, current := summary(0), summary(0.25)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		report, err := Gate(baseline, current, GateOptions{})
		if err != nil {
			b.Fatal(err)
		}
		if len(report.Findings) != cells {
			b.Fatalf("%d finding(s), want %d", len(report.Findings), cells)
		}
	}
	b.ReportMetric(cells, "cells/op")
}

// TestCellInterval pins the gate's interval rule: from two values on it
// is stats.MeanCI's interval bit for bit, built from the sample's mean
// and variance, and the warehouse's history and regressions queries,
// which build one per cell, pay no allocation for it once the lookup has
// met the sample size.
func TestCellInterval(t *testing.T) {
	tc := stats.NewTCritical(0.95)
	xs := []float64{10.1, 10.47, 10.853, 11.2, 9.97, 10.33, 10.61, 10.05, 11.01, 10.4}
	for n := 2; n <= len(xs); n++ {
		want, err := stats.MeanCI(xs[:n], 0.95)
		if err != nil {
			t.Fatal(err)
		}
		if got := CellInterval(n, stats.Mean(xs[:n]), stats.Variance(xs[:n]), 0.05, &tc); got != want {
			t.Errorf("n=%d: CellInterval = %+v, MeanCI = %+v", n, got, want)
		}
	}
	if n := testing.AllocsPerRun(100, func() {
		CellInterval(10, 5, 0.25, 0.05, &tc)
		CellInterval(1, 5, 0, 0.05, &tc)
	}); n != 0 {
		t.Errorf("CellInterval allocates %v times per call pair, want 0", n)
	}
}
