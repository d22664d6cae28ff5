package runstore

import (
	"fmt"
	"math"
	"sort"
	"strings"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/stats"
)

// Summary is the per-(assignment, response) aggregation of a run's
// records — what the regression gate compares. A baseline is always a
// store file, summarized when it is read. Rows are sorted by
// (assignment, response) so a gate report's order is deterministic.
type Summary struct {
	Experiment string
	Rows       []SummaryRow
}

// SummaryRow holds every replicate value of one response for one
// factor-level assignment.
type SummaryRow struct {
	Hash       string
	Assignment map[string]string
	Response   string
	Values     []float64
}

// assignmentString renders an assignment in the repository's canonical
// sorted "k=v k=v" form.
func assignmentString(a map[string]string) string {
	return design.Assignment(a).String()
}

func sortSummary(s *Summary) {
	sort.Slice(s.Rows, func(i, j int) bool {
		a, b := s.Rows[i], s.Rows[j]
		if as, bs := assignmentString(a.Assignment), assignmentString(b.Assignment); as != bs {
			return as < bs
		}
		return a.Response < b.Response
	})
}

// Summarize groups journal records into one Summary per experiment,
// sorted by experiment name. Replicate values appear in replicate order.
func Summarize(recs []Record) []*Summary {
	type cell struct {
		assignment map[string]string
		byRep      map[int]map[string]float64
	}
	experiments := map[string]map[string]*cell{} // experiment -> hash -> cell
	for _, rec := range recs {
		cells := experiments[rec.Experiment]
		if cells == nil {
			cells = map[string]*cell{}
			experiments[rec.Experiment] = cells
		}
		c := cells[rec.Hash]
		if c == nil {
			c = &cell{assignment: rec.Assignment, byRep: map[int]map[string]float64{}}
			cells[rec.Hash] = c
		}
		c.byRep[rec.Replicate] = rec.Responses
	}
	names := make([]string, 0, len(experiments))
	for name := range experiments {
		names = append(names, name)
	}
	sort.Strings(names)
	out := make([]*Summary, 0, len(names))
	for _, name := range names {
		s := &Summary{Experiment: name}
		for hash, c := range experiments[name] {
			reps := make([]int, 0, len(c.byRep))
			for rep := range c.byRep {
				reps = append(reps, rep)
			}
			sort.Ints(reps)
			responses := map[string]bool{}
			for _, rep := range reps {
				for resp := range c.byRep[rep] {
					responses[resp] = true
				}
			}
			for resp := range responses {
				row := SummaryRow{Hash: hash, Assignment: c.assignment, Response: resp}
				for _, rep := range reps {
					if v, ok := c.byRep[rep][resp]; ok {
						row.Values = append(row.Values, v)
					}
				}
				s.Rows = append(s.Rows, row)
			}
		}
		sortSummary(s)
		out = append(out, s)
	}
	return out
}

// Verdict classifies one (assignment, response) cell of a gate report.
type Verdict int

const (
	// Unchanged: the confidence intervals overlap — no statistically
	// meaningful shift can be claimed (the paper's visual test).
	Unchanged Verdict = iota
	// Regressed: the intervals are disjoint and the current mean is
	// higher (responses follow the lower-is-better convention of time
	// metrics; for higher-is-better responses read Regressed/Improved
	// swapped).
	Regressed
	// Improved: the intervals are disjoint and the current mean is lower.
	Improved
	// Missing: the baseline has the cell, the current run does not.
	Missing
	// Added: the current run has a cell the baseline lacks.
	Added
)

// String renders the verdict the way gate reports print it — regressions
// shout, everything else stays lowercase.
func (v Verdict) String() string {
	switch v {
	case Unchanged:
		return "unchanged"
	case Regressed:
		return "REGRESSED"
	case Improved:
		return "improved"
	case Missing:
		return "missing"
	case Added:
		return "added"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Finding is one gated cell: the baseline and current intervals and the
// verdict of comparing them.
type Finding struct {
	Assignment map[string]string
	Response   string
	Base, Cur  stats.Interval
	Verdict    Verdict
	// DeltaPct is the relative mean shift in percent (0 when the
	// baseline mean is 0 or the cell is one-sided).
	DeltaPct float64
}

// GateOptions tune the regression gate.
type GateOptions struct {
	// Confidence for the replicate-based intervals (default 0.95).
	Confidence float64
	// Tolerance is the relative half-width assumed for cells with a
	// single replicate, where no confidence interval exists: the value
	// is treated as mean ± Tolerance*|mean| (default 0.05).
	Tolerance float64
}

func (o *GateOptions) fill() error {
	if o.Confidence == 0 {
		o.Confidence = 0.95
	}
	if o.Tolerance == 0 {
		o.Tolerance = 0.05
	}
	if o.Confidence <= 0 || o.Confidence >= 1 {
		return fmt.Errorf("runstore: gate confidence must be in (0,1), got %g", o.Confidence)
	}
	if o.Tolerance <= 0 {
		return fmt.Errorf("runstore: gate tolerance must be > 0, got %g", o.Tolerance)
	}
	return nil
}

// interval builds the comparison interval for one cell: a Student-t CI
// when replicates allow (zero-variance samples yield a valid degenerate
// CI), a tolerance band for single-replicate cells. t is the pass's
// critical-value lookup at opt.Confidence.
func interval(values []float64, opt GateOptions, t *stats.TCritical) (stats.Interval, error) {
	if len(values) >= 2 {
		return t.MeanCI(values)
	}
	if len(values) == 0 {
		return stats.Interval{}, fmt.Errorf("runstore: empty cell")
	}
	m := stats.Mean(values)
	half := opt.Tolerance * math.Abs(m)
	if half == 0 {
		half = opt.Tolerance
	}
	return stats.Interval{Mean: m, Lo: m - half, Hi: m + half, Confidence: opt.Confidence, N: len(values)}, nil
}

// Intervals returns the comparison interval of every summary cell, keyed
// hash -> response, built with the same rules Gate applies (Student-t CI
// for replicated cells, a tolerance band for single-replicate ones).
// The adaptive replication controller uses this to compare a running
// cell against a stored baseline without a full gate pass.
func (s *Summary) Intervals(opt GateOptions) (map[string]map[string]stats.Interval, error) {
	if err := opt.fill(); err != nil {
		return nil, err
	}
	out := make(map[string]map[string]stats.Interval)
	t := stats.NewTCritical(opt.Confidence)
	for _, row := range s.Rows {
		iv, err := interval(row.Values, opt, &t)
		if err != nil {
			return nil, fmt.Errorf("runstore: cell %s/%s: %w", assignmentString(row.Assignment), row.Response, err)
		}
		byResp := out[row.Hash]
		if byResp == nil {
			byResp = make(map[string]stats.Interval)
			out[row.Hash] = byResp
		}
		byResp[row.Response] = iv
	}
	return out, nil
}

// CIShift is the regression gate's rule for one cell, given its
// baseline and current confidence intervals: overlapping intervals are
// Unchanged, disjoint ones Regressed when the current mean is higher
// (lower is better) and Improved otherwise. deltaPct is the current
// mean's change in percent of the baseline mean's magnitude, 0 when the
// baseline mean is 0. Gate, the warehouse's regressions query and the
// adaptive controller's baseline-drift flag all decide by it.
func CIShift(base, cur stats.Interval) (v Verdict, deltaPct float64) {
	if base.Mean != 0 {
		deltaPct = (cur.Mean - base.Mean) / math.Abs(base.Mean) * 100
	}
	switch {
	case base.Overlaps(cur):
		return Unchanged, deltaPct
	case cur.Mean > base.Mean:
		return Regressed, deltaPct
	}
	return Improved, deltaPct
}

// GateReport is the outcome of gating a run against a baseline.
type GateReport struct {
	Experiment string
	Findings   []Finding
}

// Gate compares a current run summary against a baseline. Cells are
// matched by (assignment hash, response); each matched cell is compared
// via its confidence intervals: overlapping intervals pass, disjoint
// intervals are flagged as Regressed or Improved by mean direction.
func Gate(baseline, current *Summary, opt GateOptions) (*GateReport, error) {
	if baseline == nil || current == nil {
		return nil, fmt.Errorf("runstore: gate needs both a baseline and a current summary")
	}
	if baseline.Experiment != current.Experiment {
		return nil, fmt.Errorf("runstore: gate across experiments %q vs %q", baseline.Experiment, current.Experiment)
	}
	if err := opt.fill(); err != nil {
		return nil, err
	}
	type key struct {
		hash, response string
	}
	curIdx := make(map[key]SummaryRow, len(current.Rows))
	for _, row := range current.Rows {
		curIdx[key{row.Hash, row.Response}] = row
	}
	report := &GateReport{Experiment: baseline.Experiment}
	t := stats.NewTCritical(opt.Confidence)
	seen := map[key]bool{}
	for _, base := range baseline.Rows {
		k := key{base.Hash, base.Response}
		seen[k] = true
		f := Finding{Assignment: base.Assignment, Response: base.Response}
		cur, ok := curIdx[k]
		if !ok {
			f.Verdict = Missing
			bi, err := interval(base.Values, opt, &t)
			if err != nil {
				return nil, fmt.Errorf("runstore: baseline cell %s/%s: %w", assignmentString(base.Assignment), base.Response, err)
			}
			f.Base = bi
			report.Findings = append(report.Findings, f)
			continue
		}
		bi, err := interval(base.Values, opt, &t)
		if err != nil {
			return nil, fmt.Errorf("runstore: baseline cell %s/%s: %w", assignmentString(base.Assignment), base.Response, err)
		}
		ci, err := interval(cur.Values, opt, &t)
		if err != nil {
			return nil, fmt.Errorf("runstore: current cell %s/%s: %w", assignmentString(cur.Assignment), cur.Response, err)
		}
		f.Base, f.Cur = bi, ci
		f.Verdict, f.DeltaPct = CIShift(bi, ci)
		report.Findings = append(report.Findings, f)
	}
	for _, cur := range current.Rows {
		k := key{cur.Hash, cur.Response}
		if seen[k] {
			continue
		}
		ci, err := interval(cur.Values, opt, &t)
		if err != nil {
			return nil, fmt.Errorf("runstore: current cell %s/%s: %w", assignmentString(cur.Assignment), cur.Response, err)
		}
		report.Findings = append(report.Findings, Finding{
			Assignment: cur.Assignment, Response: cur.Response, Cur: ci, Verdict: Added,
		})
	}
	return report, nil
}

// Regressions returns only the Regressed findings.
func (r *GateReport) Regressions() []Finding {
	var out []Finding
	for _, f := range r.Findings {
		if f.Verdict == Regressed {
			out = append(out, f)
		}
	}
	return out
}

// String renders the report as the repository's aligned table plus a
// one-line verdict count.
func (r *GateReport) String() string {
	tab := harness.NewTable().Header("assignment", "response", "baseline", "current", "delta%", "verdict")
	counts := map[Verdict]int{}
	for _, f := range r.Findings {
		counts[f.Verdict]++
		base, cur, delta := "-", "-", "-"
		if f.Verdict != Added {
			base = fmt.Sprintf("%.4g ±%.2g", f.Base.Mean, f.Base.HalfWidth())
		}
		if f.Verdict != Missing {
			cur = fmt.Sprintf("%.4g ±%.2g", f.Cur.Mean, f.Cur.HalfWidth())
		}
		if f.Verdict == Unchanged || f.Verdict == Regressed || f.Verdict == Improved {
			delta = fmt.Sprintf("%+.1f", f.DeltaPct)
		}
		tab.Row(assignmentString(f.Assignment), f.Response, base, cur, delta, f.Verdict.String())
	}
	var b strings.Builder
	fmt.Fprintf(&b, "regression gate: %s (%d cells)\n", r.Experiment, len(r.Findings))
	b.WriteString(tab.String())
	fmt.Fprintf(&b, "unchanged %d, regressed %d, improved %d, missing %d, added %d\n",
		counts[Unchanged], counts[Regressed], counts[Improved], counts[Missing], counts[Added])
	return b.String()
}
