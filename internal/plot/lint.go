package plot

import (
	"fmt"
	"sort"
	"strings"
)

// Rule identifies one of the paper's presentation guidelines.
type Rule int

// Lint rules, each traceable to a slide of the Presentation chapter.
const (
	// RuleMaxCurves: "a line chart should be limited at 6 curves".
	RuleMaxCurves Rule = iota
	// RuleMaxBars: "a column chart or bar should be limited to 10 bars".
	RuleMaxBars
	// RuleMaxPieComponents: "a pie chart should be limited to 8
	// components".
	RuleMaxPieComponents
	// RuleHistogramCellCount: "each cell in a histogram should have at
	// least five data points".
	RuleHistogramCellCount
	// RuleAxisLabelMissing: axes need informative labels.
	RuleAxisLabelMissing
	// RuleAxisUnitMissing: prefer "CPU time (ms)" to "CPU time".
	RuleAxisUnitMissing
	// RuleSymbolLabel: "use keywords in place of symbols to avoid a join
	// in the reader's brain" (λ=1 vs "1 job/sec").
	RuleSymbolLabel
	// RuleTruncatedAxis: the MINE-vs-YOURS pictorial game — a y axis
	// that does not begin at zero exaggerates differences.
	RuleTruncatedAxis
	// RuleAspectRatio: "let the useful height of the graph be 3/4th of
	// its useful width".
	RuleAspectRatio
	// RuleInconsistentStyle: "change the graphical layout of a given
	// curve from one figure to another".
	RuleInconsistentStyle
	// RuleTooManyResponseVariables: "presenting many result variables on
	// a single chart" (the three-y-axes "Huh?" figure).
	RuleTooManyResponseVariables
)

// String names the rule.
func (r Rule) String() string {
	switch r {
	case RuleMaxCurves:
		return "max-curves"
	case RuleMaxBars:
		return "max-bars"
	case RuleMaxPieComponents:
		return "max-pie-components"
	case RuleHistogramCellCount:
		return "histogram-cell-count"
	case RuleAxisLabelMissing:
		return "axis-label-missing"
	case RuleAxisUnitMissing:
		return "axis-unit-missing"
	case RuleSymbolLabel:
		return "symbol-label"
	case RuleTruncatedAxis:
		return "truncated-axis"
	case RuleAspectRatio:
		return "aspect-ratio"
	case RuleInconsistentStyle:
		return "inconsistent-style"
	case RuleTooManyResponseVariables:
		return "too-many-response-variables"
	default:
		return fmt.Sprintf("Rule(%d)", int(r))
	}
}

// Violation is one guideline violation found by Lint.
type Violation struct {
	Rule    Rule
	Message string
}

func (v Violation) String() string { return v.Rule.String() + ": " + v.Message }

// Limits from the paper's rules of thumb ("to override with good reason").
const (
	MaxCurves        = 6
	MaxBars          = 10
	MaxPieComponents = 8
	MinHistCellCount = 5
)

// Lint checks a chart against the paper's presentation guidelines and
// returns every violation. A structurally invalid chart yields an error
// from Validate first; Lint assumes validity.
func Lint(c *Chart) []Violation {
	var out []Violation
	add := func(r Rule, format string, args ...any) {
		out = append(out, Violation{Rule: r, Message: fmt.Sprintf(format, args...)})
	}

	switch c.Kind {
	case Line:
		if len(c.Series) > MaxCurves {
			add(RuleMaxCurves, "%d curves; limit is %d", len(c.Series), MaxCurves)
		}
	case Bar:
		if n := len(c.Series[0].Points); n > MaxBars {
			add(RuleMaxBars, "%d bars; limit is %d", n, MaxBars)
		}
	case Pie:
		if n := len(c.Series[0].Points); n > MaxPieComponents {
			add(RuleMaxPieComponents, "%d components; limit is %d", n, MaxPieComponents)
		}
	case HistogramKind:
		for _, s := range c.Series {
			for i, p := range s.Points {
				if p.Y < MinHistCellCount {
					add(RuleHistogramCellCount, "cell %d holds %.0f points; want >= %d (coarsen the bins)", i, p.Y, MinHistCellCount)
				}
			}
		}
	}

	if c.Kind != Pie {
		if strings.TrimSpace(c.YLabel) == "" {
			add(RuleAxisLabelMissing, "y axis has no label")
		} else if !hasUnit(c.YLabel) {
			add(RuleAxisUnitMissing, "y label %q has no unit; prefer e.g. %q", c.YLabel, c.YLabel+" (ms)")
		}
		if c.Kind == Line {
			if strings.TrimSpace(c.XLabel) == "" {
				add(RuleAxisLabelMissing, "x axis has no label")
			}
			if !c.YStartsAtZero {
				lo, hi := c.YRange()
				add(RuleTruncatedAxis, "y axis starts at %g (data up to %g); a zero-based axis avoids the MINE-vs-YOURS exaggeration", lo, hi)
			}
		}
	}

	for _, s := range c.Series {
		if looksSymbolic(s.Name) {
			add(RuleSymbolLabel, "series %q uses a symbol; use keywords (e.g. \"1 job/sec\") to avoid a join in the reader's brain", s.Name)
		}
	}

	if c.AspectRatio != 0 && (c.AspectRatio < 0.6 || c.AspectRatio > 0.9) {
		add(RuleAspectRatio, "aspect ratio %.2f; recommended height = 3/4 width", c.AspectRatio)
	}
	return out
}

// looksSymbolic reports whether a series name is a bare symbol assignment
// like "λ=1" or "µ=3" rather than words.
func looksSymbolic(name string) bool {
	name = strings.TrimSpace(name)
	if name == "" {
		return false
	}
	if !strings.ContainsRune(name, '=') {
		return false
	}
	head := strings.TrimSpace(strings.SplitN(name, "=", 2)[0])
	// Single-rune heads (x=1, λ=1, µ=2) are symbols; words are fine.
	return len([]rune(head)) == 1 || head == "lambda" || head == "mu"
}

// LintFigureSet applies the cross-figure rule: a series appearing in
// several charts (matched by name) must keep the same style everywhere.
func LintFigureSet(charts []*Chart) []Violation {
	styles := map[string]Style{}
	var out []Violation
	for _, c := range charts {
		for _, s := range c.Series {
			prev, seen := styles[s.Name]
			if !seen {
				styles[s.Name] = s.Style
				continue
			}
			if prev != s.Style {
				out = append(out, Violation{
					Rule: RuleInconsistentStyle,
					Message: fmt.Sprintf("series %q drawn with style %+v in one figure and %+v in another (chart %q)",
						s.Name, prev, s.Style, c.Title),
				})
			}
		}
	}
	return out
}

// LintCombined flags a single chart carrying several response variables
// with different scales — the paper's "Huh?" example with response time,
// throughput, and utilization on one plot. Charts are passed with the
// response variable each series measures; more than one distinct variable
// on the same chart is flagged.
func LintCombined(c *Chart, seriesResponseVars []string) []Violation {
	if len(seriesResponseVars) != len(c.Series) {
		return []Violation{{Rule: RuleTooManyResponseVariables,
			Message: fmt.Sprintf("%d response-variable annotations for %d series", len(seriesResponseVars), len(c.Series))}}
	}
	distinct := map[string]bool{}
	for _, v := range seriesResponseVars {
		distinct[v] = true
	}
	if len(distinct) > 1 {
		vars := make([]string, 0, len(distinct))
		for v := range distinct {
			vars = append(vars, v)
		}
		sort.Strings(vars)
		return []Violation{{Rule: RuleTooManyResponseVariables,
			Message: fmt.Sprintf("chart %q mixes %d response variables (%s); plot them separately", c.Title, len(distinct), strings.Join(vars, ", "))}}
	}
	return nil
}
