package harness

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/design"
)

// paperRunner produces the paper's 2^2 memory/cache MIPS responses with
// deterministic replicate noise that averages out.
func paperRunner(a design.Assignment, rep int) (map[string]float64, error) {
	// Assignment.String() renders keys alphabetically: cache first.
	base := map[string]float64{
		"cache=1KB memory=4MB":  15,
		"cache=2KB memory=4MB":  25,
		"cache=1KB memory=16MB": 45,
		"cache=2KB memory=16MB": 75,
	}[a.String()]
	if base == 0 {
		return nil, fmt.Errorf("unknown assignment %s", a)
	}
	noise := []float64{-1, 1, 0}[rep%3]
	return map[string]float64{"MIPS": base + noise}, nil
}

func paperExperiment(t *testing.T, reps int) *Experiment {
	t.Helper()
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = reps
	return &Experiment{Name: "workstation 2^2", Design: d, Responses: []string{"MIPS"}, Run: paperRunner}
}

func TestExecutePaperExample(t *testing.T) {
	rs, err := Execute(context.Background(), paperExperiment(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	if len(rs.Rows) != 4 {
		t.Fatalf("rows = %d", len(rs.Rows))
	}
	means := rs.Means("MIPS")
	want := []float64{15, 25, 45, 75}
	for i := range want {
		if means[i] != want[i] {
			t.Errorf("mean[%d] = %g, want %g", i, means[i], want[i])
		}
	}
	ef, err := rs.Effects("MIPS")
	if err != nil {
		t.Fatal(err)
	}
	if ef.Q[design.I] != 40 || ef.Q[design.MainEffect(0)] != 20 ||
		ef.Q[design.MainEffect(1)] != 10 || ef.Q[design.MainEffect(0).Mul(design.MainEffect(1))] != 5 {
		t.Errorf("effects = %v", ef.Q)
	}
}

func TestCIs(t *testing.T) {
	rs, err := Execute(context.Background(), paperExperiment(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	ivs, err := rs.CIs("MIPS", 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if len(ivs) != 4 {
		t.Fatalf("intervals = %d", len(ivs))
	}
	for i, iv := range ivs {
		if !iv.Contains(iv.Mean) || iv.HalfWidth() <= 0 {
			t.Errorf("interval %d = %v", i, iv)
		}
	}
	// Single replicate: CIs impossible.
	rs1, _ := Execute(context.Background(), paperExperiment(t, 1))
	if _, err := rs1.CIs("MIPS", 0.95); err == nil {
		t.Error("CI with 1 replicate should error")
	}
}

func TestReport(t *testing.T) {
	rs, err := Execute(context.Background(), paperExperiment(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	report := rs.Report()
	for _, want := range []string{
		"workstation 2^2", "memory", "cache", "MIPS",
		"±",                                // CIs shown for replicated runs
		"y = 40 + 20*xA + 10*xB + 5*xA*xB", // fitted model
		"variation explained", "qmemory",
	} {
		if !strings.Contains(report, want) {
			t.Errorf("report missing %q:\n%s", want, report)
		}
	}
	if strings.Contains(report, "WARNING") {
		t.Error("replicated experiment should not warn")
	}
	// Unreplicated: warns about ignored experimental error.
	rs1, _ := Execute(context.Background(), paperExperiment(t, 1))
	if !strings.Contains(rs1.Report(), "WARNING") {
		t.Error("unreplicated experiment should warn (common mistake #1)")
	}
}

func TestValidate(t *testing.T) {
	good := paperExperiment(t, 1)
	cases := []struct {
		name   string
		mutate func(*Experiment)
	}{
		{"no name", func(e *Experiment) { e.Name = "" }},
		{"no design", func(e *Experiment) { e.Design = nil }},
		{"no responses", func(e *Experiment) { e.Responses = nil }},
		{"duplicate response", func(e *Experiment) { e.Responses = []string{"a", "a"} }},
		{"empty response", func(e *Experiment) { e.Responses = []string{""} }},
		{"no runner", func(e *Experiment) { e.Run = nil }},
	}
	for _, c := range cases {
		e := paperExperiment(t, 1)
		c.mutate(e)
		if err := e.Validate(); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	if err := good.Validate(); err != nil {
		t.Errorf("good experiment rejected: %v", err)
	}
}

func TestExecuteErrors(t *testing.T) {
	boom := errors.New("runner crashed")
	e := paperExperiment(t, 1)
	e.Run = func(design.Assignment, int) (map[string]float64, error) { return nil, boom }
	if _, err := Execute(context.Background(), e); !errors.Is(err, boom) {
		t.Errorf("runner error not propagated: %v", err)
	}
	e2 := paperExperiment(t, 1)
	e2.Run = func(design.Assignment, int) (map[string]float64, error) {
		return map[string]float64{"other": 1}, nil
	}
	if _, err := Execute(context.Background(), e2); err == nil {
		t.Error("missing response should error")
	}
}

func TestEffectsRequireCanonicalTwoLevel(t *testing.T) {
	// Simple design: effects unavailable.
	d, _ := design.Simple([]design.Factor{
		design.MustFactor("a", "x", "y"),
		design.MustFactor("b", "x", "y"),
	})
	e := &Experiment{Name: "simple", Design: d, Responses: []string{"r"},
		Run: func(design.Assignment, int) (map[string]float64, error) {
			return map[string]float64{"r": 1}, nil
		}}
	rs, err := Execute(context.Background(), e)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs.Effects("r"); err == nil {
		t.Error("effects on a simple design should error")
	}
	// Scrambled row order: rejected.
	d2, _ := design.TwoLevelFull([]design.Factor{design.MustFactor("a", "x", "y")})
	d2.Rows[0], d2.Rows[1] = d2.Rows[1], d2.Rows[0]
	e2 := &Experiment{Name: "scrambled", Design: d2, Responses: []string{"r"}, Run: e.Run}
	rs2, err := Execute(context.Background(), e2)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := rs2.Effects("r"); err == nil {
		t.Error("non-canonical order should error")
	}
}

func TestTableRendering(t *testing.T) {
	tab := NewTable().Header("name", "value").Row("alpha", "1").Row("z", "22222")
	out := tab.String()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	if len(lines) != 4 {
		t.Fatalf("lines = %d:\n%s", len(lines), out)
	}
	if !strings.HasPrefix(lines[1], "---") {
		t.Errorf("missing separator: %q", lines[1])
	}
	// Columns align: "value" column starts at same offset everywhere.
	idx := strings.Index(lines[0], "value")
	if !strings.HasPrefix(lines[2][idx:], "1") || !strings.HasPrefix(lines[3][idx:], "22222") {
		t.Errorf("misaligned table:\n%s", out)
	}
}

func TestResultSetCSV(t *testing.T) {
	rs, err := Execute(context.Background(), paperExperiment(t, 3))
	if err != nil {
		t.Fatal(err)
	}
	csv := rs.CSV()
	lines := strings.Split(strings.TrimSpace(csv), "\n")
	if len(lines) != 5 {
		t.Fatalf("lines = %d:\n%s", len(lines), csv)
	}
	if lines[0] != "memory,cache,MIPS" {
		t.Errorf("header = %q", lines[0])
	}
	if !strings.Contains(csv, "16MB,2KB,75") {
		t.Errorf("csv missing high-high row:\n%s", csv)
	}
}
