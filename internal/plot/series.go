// Package plot implements the paper's Presentation chapter as code: a chart
// model, gnuplot script emission, ASCII rendering for terminals, C-locale
// number formatting with locale-hazard detection, and — most importantly — a
// chart linter that enforces the paper's guidelines ("require minimum
// effort from the reader", "maximize information", "minimize ink") and
// flags its catalogued mistakes and pictorial games.
package plot

import (
	"fmt"
	"strings"
)

// Kind is the chart family.
type Kind int

// Chart kinds.
const (
	Line Kind = iota
	Bar
	Pie
	HistogramKind
)

func (k Kind) String() string {
	switch k {
	case Line:
		return "line"
	case Bar:
		return "bar"
	case Pie:
		return "pie"
	case HistogramKind:
		return "histogram"
	default:
		return fmt.Sprintf("Kind(%d)", int(k))
	}
}

// Point is one (x, y) observation.
type Point struct {
	X, Y float64
}

// Style is a named visual style for a series. The paper's rule: a given
// curve must keep the same layout from one figure to the next, so styles
// are compared by value across a figure set.
type Style struct {
	// LineType and PointType follow gnuplot numbering.
	LineType, PointType int
	// Color is a symbolic color name.
	Color string
}

// Series is one named curve/bar group.
type Series struct {
	// Name labels the series. The paper: "use keywords in place of
	// symbols to avoid a join in the reader's brain" — so Name should be
	// words ("1 job/sec"), not a symbol ("λ=1").
	Name   string
	Points []Point
	Style  Style
}

// Labels for pie/bar categories when X values are categorical.
type Labels []string

// Chart is the renderable chart model.
type Chart struct {
	Title  string
	XLabel string // should include units, e.g. "CPU time (ms)"
	YLabel string
	Kind   Kind
	Series []Series
	// CatLabels name the categories of Bar/Pie charts (one per point).
	CatLabels Labels
	// YStartsAtZero records whether the y axis begins at 0; truncated
	// axes are one of the paper's pictorial games (MINE vs YOURS).
	YStartsAtZero bool
	// WidthFrac is the intended width as a fraction of text width
	// (drives the gnuplot sizing rule); 0 means full width.
	WidthFrac float64
	// AspectRatio is height/width of the plot area; the paper
	// recommends 3/4. 0 means unset (renderer default 0.75).
	AspectRatio float64
}

// NewLineChart builds a line chart with the recommended defaults: y axis
// starting at zero and the 3/4 aspect ratio.
func NewLineChart(title, xlabel, ylabel string, series ...Series) *Chart {
	return &Chart{
		Title: title, XLabel: xlabel, YLabel: ylabel,
		Kind: Line, Series: series,
		YStartsAtZero: true, AspectRatio: 0.75,
	}
}

// NewBarChart builds a bar chart over categories.
func NewBarChart(title, ylabel string, labels Labels, values []float64) *Chart {
	pts := make([]Point, len(values))
	for i, v := range values {
		pts[i] = Point{X: float64(i), Y: v}
	}
	return &Chart{
		Title: title, YLabel: ylabel, Kind: Bar,
		Series:        []Series{{Name: title, Points: pts}},
		CatLabels:     labels,
		YStartsAtZero: true, AspectRatio: 0.75,
	}
}

// NewPieChart builds a pie chart from category shares.
func NewPieChart(title string, labels Labels, values []float64) *Chart {
	pts := make([]Point, len(values))
	for i, v := range values {
		pts[i] = Point{X: float64(i), Y: v}
	}
	return &Chart{
		Title: title, Kind: Pie,
		Series:    []Series{{Name: title, Points: pts}},
		CatLabels: labels,
	}
}

// YRange returns the minimum and maximum Y over all series (0,0 for an
// empty chart).
func (c *Chart) YRange() (lo, hi float64) {
	first := true
	for _, s := range c.Series {
		for _, p := range s.Points {
			if first {
				lo, hi = p.Y, p.Y
				first = false
				continue
			}
			if p.Y < lo {
				lo = p.Y
			}
			if p.Y > hi {
				hi = p.Y
			}
		}
	}
	return lo, hi
}

// XRange returns the minimum and maximum X over all series.
func (c *Chart) XRange() (lo, hi float64) {
	first := true
	for _, s := range c.Series {
		for _, p := range s.Points {
			if first {
				lo, hi = p.X, p.X
				first = false
				continue
			}
			if p.X < lo {
				lo = p.X
			}
			if p.X > hi {
				hi = p.X
			}
		}
	}
	return lo, hi
}

// Validate reports structural problems (as opposed to guideline violations,
// which Lint reports).
func (c *Chart) Validate() error {
	if len(c.Series) == 0 {
		return fmt.Errorf("plot: chart %q has no series", c.Title)
	}
	for _, s := range c.Series {
		if len(s.Points) == 0 {
			return fmt.Errorf("plot: chart %q: series %q has no points", c.Title, s.Name)
		}
	}
	if c.Kind == Bar || c.Kind == Pie {
		n := len(c.Series[0].Points)
		if len(c.CatLabels) != n {
			return fmt.Errorf("plot: chart %q: %d category labels for %d values", c.Title, len(c.CatLabels), n)
		}
	}
	if c.Kind == Pie {
		for _, p := range c.Series[0].Points {
			if p.Y < 0 {
				return fmt.Errorf("plot: chart %q: negative pie share %g", c.Title, p.Y)
			}
		}
	}
	return nil
}

// hasUnit reports whether an axis label includes a parenthesized unit,
// e.g. "CPU time (ms)" — the paper's "include units in the labels".
func hasUnit(label string) bool {
	open := strings.IndexByte(label, '(')
	close := strings.IndexByte(label, ')')
	return open >= 0 && close > open+1
}
