package runstore

import (
	"context"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/design"
	"repro/internal/harness"
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

func TestFromResultSetMatchesJournalSummary(t *testing.T) {
	d, err := design.TwoLevelFull([]design.Factor{design.MustFactor("f", "lo", "hi")})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = 2
	e := &harness.Experiment{
		Name: "exp", Design: d, Responses: []string{"t"},
		Run: func(a design.Assignment, rep int) (map[string]float64, error) {
			v := 10.0
			if a["f"] == "hi" {
				v = 20
			}
			return map[string]float64{"t": v + float64(rep)}, nil
		},
	}
	rs, err := harness.Execute(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	fromRS := FromResultSet(rs)

	// The same run journaled and summarized must agree cell for cell.
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for r, row := range rs.Rows {
		for rep, resp := range row.Reps {
			if err := j.Append(rec("exp", r, rep, row.Assignment, resp)); err != nil {
				t.Fatal(err)
			}
		}
	}
	j.Close()
	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	fromJournal := Summarize(recs)[0]
	if len(fromRS.Rows) != len(fromJournal.Rows) {
		t.Fatalf("row counts differ: %d vs %d", len(fromRS.Rows), len(fromJournal.Rows))
	}
	for i := range fromRS.Rows {
		a, b := fromRS.Rows[i], fromJournal.Rows[i]
		if a.Hash != b.Hash || a.Response != b.Response || len(a.Values) != len(b.Values) {
			t.Fatalf("row %d differs: %+v vs %+v", i, a, b)
		}
		for k := range a.Values {
			if a.Values[k] != b.Values[k] {
				t.Errorf("row %d value %d: %v vs %v", i, k, a.Values[k], b.Values[k])
			}
		}
	}
}

func TestSummarySaveLoadRoundTrip(t *testing.T) {
	s := summaryFor(t, map[string]float64{"lo": 10, "hi": 20}, []float64{-0.1, 0, 0.1})
	path := filepath.Join(t.TempDir(), "sub", "baseline.json")
	if err := s.Save(path); err != nil {
		t.Fatal(err)
	}
	got, err := LoadSummary(path)
	if err != nil {
		t.Fatal(err)
	}
	if got.Experiment != s.Experiment || len(got.Rows) != len(s.Rows) {
		t.Fatalf("round trip lost data: %+v", got)
	}
	for i := range s.Rows {
		if got.Rows[i].Hash != s.Rows[i].Hash {
			t.Errorf("row %d hash differs", i)
		}
		for k := range s.Rows[i].Values {
			if got.Rows[i].Values[k] != s.Rows[i].Values[k] {
				t.Errorf("row %d value %d differs after JSON round trip", i, k)
			}
		}
	}
	if _, err := LoadSummary(filepath.Join(t.TempDir(), "absent.json")); err == nil {
		t.Error("missing baseline should error")
	}
}

// TestSummarySaveReplacesWhole: a save over an existing baseline replaces
// it whole, keeps its file mode, and leaves no temporary file beside it.
func TestSummarySaveReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	if err := summaryFor(t, map[string]float64{"lo": 10, "hi": 20}, []float64{-0.1, 0, 0.1}).Save(path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	next := summaryFor(t, map[string]float64{"lo": 30, "hi": 40}, []float64{-0.3, 0.3})
	if err := next.Save(path); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("baseline after a save over it: %v, %v; want mode 0600 kept", st.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after the save, want only the baseline: %v", len(entries), entries)
	}
	got, err := LoadSummary(path)
	if err != nil || len(got.Rows) != len(next.Rows) || got.Rows[0].Values[0] != next.Rows[0].Values[0] {
		t.Fatalf("baseline after the save = %+v, %v; want the second summary", got, err)
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
