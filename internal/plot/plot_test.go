package plot

import (
	"strconv"
	"strings"
	"testing"
)

func goodLineChart() *Chart {
	return NewLineChart("Execution time for various scale factors",
		"Scale factor", "Execution time (ms)",
		Series{Name: "MonetDB-like engine", Points: []Point{{X: 1, Y: 1234}, {X: 2, Y: 2467}, {X: 3, Y: 4623}}},
	)
}

func TestGoodChartLintsClean(t *testing.T) {
	c := goodLineChart()
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
	if vs := Lint(c); len(vs) != 0 {
		t.Errorf("good chart has violations: %v", vs)
	}
}

func TestValidate(t *testing.T) {
	if err := (&Chart{Title: "empty"}).Validate(); err == nil {
		t.Error("no series should fail")
	}
	c := &Chart{Series: []Series{{Name: "s"}}}
	if err := c.Validate(); err == nil {
		t.Error("empty series should fail")
	}
	bar := NewBarChart("b", "count", Labels{"a"}, []float64{1, 2})
	if err := bar.Validate(); err == nil {
		t.Error("label/value mismatch should fail")
	}
	pie := NewPieChart("p", Labels{"a", "b"}, []float64{1, -1})
	if err := pie.Validate(); err == nil {
		t.Error("negative pie share should fail")
	}
}

func TestLintMaxCurves(t *testing.T) {
	c := goodLineChart()
	for i := 0; i < 7; i++ {
		c.Series = append(c.Series, Series{Name: strings.Repeat("s", i+2) + " engine", Points: []Point{{X: 1, Y: 1}}})
	}
	if !hasRule(Lint(c), RuleMaxCurves) {
		t.Error("8 curves should violate max-curves")
	}
}

func TestLintMaxBarsAndPie(t *testing.T) {
	labels := make(Labels, 12)
	vals := make([]float64, 12)
	for i := range labels {
		labels[i] = string(rune('a' + i))
		vals[i] = float64(i + 1)
	}
	bar := NewBarChart("bars", "count (n)", labels, vals)
	if !hasRule(Lint(bar), RuleMaxBars) {
		t.Error("12 bars should violate max-bars")
	}
	pie := NewPieChart("pie", labels, vals)
	if !hasRule(Lint(pie), RuleMaxPieComponents) {
		t.Error("12 components should violate max-pie")
	}
	// Within limits: clean.
	small := NewBarChart("bars", "count (n)", labels[:5], vals[:5])
	if hasRule(Lint(small), RuleMaxBars) {
		t.Error("5 bars should pass")
	}
}

func TestLintHistogramCells(t *testing.T) {
	c := &Chart{
		Kind:   HistogramKind,
		YLabel: "frequency (points)",
		Series: []Series{{Name: "response times", Points: []Point{
			{X: 0, Y: 3}, {X: 1, Y: 6}, {X: 2, Y: 9}, {X: 3, Y: 12}, {X: 4, Y: 4}, {X: 5, Y: 2},
		}}},
		CatLabels: Labels{"[0,2)", "[2,4)", "[4,6)", "[6,8)", "[8,10)", "[10,12)"},
	}
	vs := Lint(c)
	count := 0
	for _, v := range vs {
		if v.Rule == RuleHistogramCellCount {
			count++
		}
	}
	if count != 3 { // cells with 3, 4, 2 points
		t.Errorf("under-populated cells flagged = %d, want 3: %v", count, vs)
	}
}

func TestLintAxisLabels(t *testing.T) {
	c := goodLineChart()
	c.YLabel = ""
	if !hasRule(Lint(c), RuleAxisLabelMissing) {
		t.Error("missing y label should be flagged")
	}
	c.YLabel = "CPU time" // no unit
	if !hasRule(Lint(c), RuleAxisUnitMissing) {
		t.Error("unit-less label should be flagged")
	}
	c.YLabel = "CPU time (ms)"
	c.XLabel = ""
	if !hasRule(Lint(c), RuleAxisLabelMissing) {
		t.Error("missing x label should be flagged")
	}
}

func TestLintSymbolSeries(t *testing.T) {
	c := goodLineChart()
	c.Series[0].Name = "λ=1"
	if !hasRule(Lint(c), RuleSymbolLabel) {
		t.Error("symbolic series name should be flagged")
	}
	c.Series[0].Name = "1 job/sec"
	if hasRule(Lint(c), RuleSymbolLabel) {
		t.Error("keyword series name should pass")
	}
	c.Series[0].Name = "buffer=64MB" // word head: fine
	if hasRule(Lint(c), RuleSymbolLabel) {
		t.Error("word=value series name should pass")
	}
}

func TestLintTruncatedAxis(t *testing.T) {
	c := goodLineChart()
	c.YStartsAtZero = false
	if !hasRule(Lint(c), RuleTruncatedAxis) {
		t.Error("truncated y axis should be flagged (MINE vs YOURS)")
	}
}

func TestLintAspectRatio(t *testing.T) {
	c := goodLineChart()
	c.AspectRatio = 0.2
	if !hasRule(Lint(c), RuleAspectRatio) {
		t.Error("flat aspect should be flagged")
	}
	c.AspectRatio = 0.75
	if hasRule(Lint(c), RuleAspectRatio) {
		t.Error("3/4 aspect should pass")
	}
}

func TestLintFigureSet(t *testing.T) {
	s1 := Series{Name: "engine A", Points: []Point{{X: 1, Y: 1}}, Style: Style{LineType: 1, Color: "red"}}
	s2 := s1
	s2.Style = Style{LineType: 2, Color: "blue"}
	c1 := NewLineChart("fig 1", "x (n)", "y (ms)", s1)
	c2 := NewLineChart("fig 2", "x (n)", "y (ms)", s2)
	vs := LintFigureSet([]*Chart{c1, c2})
	if len(vs) != 1 || vs[0].Rule != RuleInconsistentStyle {
		t.Errorf("style change should be flagged: %v", vs)
	}
	// Consistent styles pass.
	c2.Series[0].Style = s1.Style
	if vs := LintFigureSet([]*Chart{c1, c2}); len(vs) != 0 {
		t.Errorf("consistent styles flagged: %v", vs)
	}
}

func TestLintCombined(t *testing.T) {
	c := NewLineChart("everything", "users (n)", "value (mixed)",
		Series{Name: "response time", Points: []Point{{X: 1, Y: 1}}},
		Series{Name: "throughput", Points: []Point{{X: 1, Y: 1}}},
		Series{Name: "utilization", Points: []Point{{X: 1, Y: 1}}},
	)
	vs := LintCombined(c, []string{"response time", "throughput", "utilization"})
	if len(vs) != 1 || vs[0].Rule != RuleTooManyResponseVariables {
		t.Errorf("mixed response variables should be flagged: %v", vs)
	}
	if vs := LintCombined(c, []string{"t", "t", "t"}); len(vs) != 0 {
		t.Errorf("single response variable flagged: %v", vs)
	}
	if vs := LintCombined(c, []string{"t"}); len(vs) != 1 {
		t.Errorf("annotation mismatch should be flagged: %v", vs)
	}
}

func hasRule(vs []Violation, r Rule) bool {
	for _, v := range vs {
		if v.Rule == r {
			return true
		}
	}
	return false
}

func TestRuleStrings(t *testing.T) {
	rules := []Rule{RuleMaxCurves, RuleMaxBars, RuleMaxPieComponents, RuleHistogramCellCount,
		RuleAxisLabelMissing, RuleAxisUnitMissing, RuleSymbolLabel, RuleTruncatedAxis,
		RuleAspectRatio, RuleInconsistentStyle, RuleTooManyResponseVariables}
	seen := map[string]bool{}
	for _, r := range rules {
		s := r.String()
		if s == "" || seen[s] {
			t.Errorf("rule %d string %q empty or duplicate", int(r), s)
		}
		seen[s] = true
	}
	v := Violation{Rule: RuleMaxCurves, Message: "m"}
	if v.String() != "max-curves: m" {
		t.Errorf("violation string = %q", v.String())
	}
	if Kind(9).String() == "" || Line.String() != "line" {
		t.Error("kind strings")
	}
}

// TestGnuplotPaperExample reproduces the paper's slide 202-205 recipe:
// results-m1-n5.csv data, command file, verifying the emitted script
// contains the documented directives.
func TestGnuplotPaperExample(t *testing.T) {
	c := goodLineChart()
	script := GnuplotScript(c, "results-m1-n5.csv", "results-m1-n5.eps")
	for _, want := range []string{
		`set output "results-m1-n5.eps"`,
		`set title "Execution time for various scale factors"`,
		`set xlabel "Scale factor"`,
		`set ylabel "Execution time (ms)"`,
		"set style data linespoints",
		`plot "results-m1-n5.csv"`,
	} {
		if !strings.Contains(script, want) {
			t.Errorf("script missing %q:\n%s", want, script)
		}
	}
}

func TestGnuplotSizeRatio(t *testing.T) {
	// Full width: default canvas.
	sx, sy := GnuplotSizeRatio(1)
	if sx != 1 || sy != 1 {
		t.Errorf("full width = %g,%g", sx, sy)
	}
	// Half width: the paper's rule x*1.5.
	sx, sy = GnuplotSizeRatio(0.5)
	if sx != 0.75 {
		t.Errorf("half width sx = %g, want 0.75 (0.5*1.5)", sx)
	}
	if sy != 0.5 {
		t.Errorf("half width sy = %g", sy)
	}
	// Invalid fractions normalize to full width.
	if sx, _ := GnuplotSizeRatio(-1); sx != 1 {
		t.Errorf("negative frac sx = %g", sx)
	}
}

func TestGnuplotData(t *testing.T) {
	c := goodLineChart()
	data, err := WriteGnuplotData(c)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, "1\t1234") {
		t.Errorf("data = %q", data)
	}
	// Mismatched series lengths error.
	c.Series = append(c.Series, Series{Name: "short", Points: []Point{{X: 1, Y: 1}}})
	if _, err := WriteGnuplotData(c); err == nil {
		t.Error("ragged series should error")
	}
	// Categorical data.
	bar := NewBarChart("b", "n (count)", Labels{"x", "y"}, []float64{1, 2})
	data, err = WriteGnuplotData(bar)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(data, `"x" 1`) {
		t.Errorf("bar data = %q", data)
	}
	barScript := GnuplotScript(bar, "d.dat", "o.eps")
	if !strings.Contains(barScript, "histogram") {
		t.Errorf("bar script = %q", barScript)
	}
	pie := NewPieChart("p", Labels{"x"}, []float64{1})
	if s := GnuplotScript(pie, "d.dat", "o.eps"); !strings.Contains(s, "boxes") {
		t.Errorf("pie script = %q", s)
	}
}

// TestLocaleHazardPaperExample reproduces the paper's avgs.out war story:
// "13.666" and "12.3333" pasted under a mismatched locale become 13666 and
// 123333, and the detector catches both.
func TestLocaleHazardPaperExample(t *testing.T) {
	original := []string{"13.666", "15", "12.3333", "13"}
	var mangledRows [][]float64
	for _, s := range original {
		v, err := strconv.ParseFloat(LocaleMangle(s), 64)
		if err != nil {
			t.Fatal(err)
		}
		mangledRows = append(mangledRows, []float64{v})
	}
	// The mangled values are 13666, 15, 123333, 13 — matching the paper.
	if mangledRows[0][0] != 13666 || mangledRows[2][0] != 123333 {
		t.Fatalf("mangled = %v", mangledRows)
	}
	hazards := DetectLocaleHazards(mangledRows)
	if len(hazards) != 2 {
		t.Fatalf("hazards = %v, want 2", hazards)
	}
	for _, h := range hazards {
		if h.Row != 0 && h.Row != 2 {
			t.Errorf("unexpected hazard row %d", h.Row)
		}
		if h.String() == "" {
			t.Error("empty hazard string")
		}
	}
	// Clean data yields no hazards.
	clean := [][]float64{{13.666}, {15}, {12.3333}, {13}}
	if hs := DetectLocaleHazards(clean); len(hs) != 0 {
		t.Errorf("clean data flagged: %v", hs)
	}
	if hs := DetectLocaleHazards(nil); hs != nil {
		t.Errorf("nil rows: %v", hs)
	}
}

func TestASCIILineChart(t *testing.T) {
	c := goodLineChart()
	out, err := ASCII(c, 60, 12)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"Execution time", "Scale factor", "*", "MonetDB-like engine"} {
		if !strings.Contains(out, want) {
			t.Errorf("ascii missing %q:\n%s", want, out)
		}
	}
	// Degenerate sizes normalize.
	if _, err := ASCII(c, 1, 1); err != nil {
		t.Errorf("tiny canvas: %v", err)
	}
	// Invalid chart errors.
	if _, err := ASCII(&Chart{}, 60, 12); err == nil {
		t.Error("invalid chart should error")
	}
}

func TestASCIIBarsAndPie(t *testing.T) {
	bar := NewBarChart("papers", "count (papers)", Labels{"all repeated", "some", "none"}, []float64{30, 25, 23})
	out, err := ASCII(bar, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "#") || !strings.Contains(out, "all repeated") {
		t.Errorf("bar chart:\n%s", out)
	}
	pie := NewPieChart("share", Labels{"a", "b"}, []float64{75, 25})
	out, err = ASCII(pie, 60, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out, "75.0%") || !strings.Contains(out, "25.0%") {
		t.Errorf("pie chart:\n%s", out)
	}
	// All-zero bars don't divide by zero.
	zero := NewBarChart("z", "n (count)", Labels{"a"}, []float64{0})
	if _, err := ASCII(zero, 60, 0); err != nil {
		t.Errorf("zero bars: %v", err)
	}
}

func TestStackedBar(t *testing.T) {
	out, err := StackedBar("memory wall", []string{"1992 Sparc", "2000 R12000"},
		[]float64{160, 13}, []float64{100, 100}, "CPU", "memory", "ns", 70)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"memory wall", "1992 Sparc", "C", "M", "ns"} {
		if !strings.Contains(out, want) {
			t.Errorf("stacked bar missing %q:\n%s", want, out)
		}
	}
	if _, err := StackedBar("t", []string{"a"}, []float64{1, 2}, []float64{1}, "x", "y", "u", 70); err == nil {
		t.Error("length mismatch should error")
	}
	if _, err := StackedBar("t", nil, nil, nil, "x", "y", "u", 70); err == nil {
		t.Error("empty input should error")
	}
}

func TestYXRange(t *testing.T) {
	c := goodLineChart()
	ylo, yhi := c.YRange()
	if ylo != 1234 || yhi != 4623 {
		t.Errorf("y range = %g,%g", ylo, yhi)
	}
	xlo, xhi := c.XRange()
	if xlo != 1 || xhi != 3 {
		t.Errorf("x range = %g,%g", xlo, xhi)
	}
	empty := &Chart{}
	if lo, hi := empty.YRange(); lo != 0 || hi != 0 {
		t.Error("empty chart range")
	}
}

func TestFormatFloatCLocale(t *testing.T) {
	if FormatFloat(13.666) != "13.666" {
		t.Errorf("FormatFloat = %q", FormatFloat(13.666))
	}
	if strings.ContainsAny(FormatFloat(1234567.89), ", ") {
		t.Error("grouping separators must never appear")
	}
}
