package runstore

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/stats"
)

// Summary is the per-(assignment, response) aggregation of one
// experiment's records — what the regression gate compares. It holds
// only what a confidence interval needs: per cell the replicate count,
// mean and sample variance, which the warehouse's single-pass ingest
// computes (warehouse.Summarize reads a store file into Summaries). Rows
// are sorted by (assignment, response) so a gate report's order is
// deterministic.
type Summary struct {
	Experiment string
	Rows       []SummaryRow
}

// SummaryRow aggregates one response's replicate values for one
// factor-level assignment. N is at least 1.
type SummaryRow struct {
	Hash       string
	Assignment map[string]string
	Response   string
	N          int
	Mean       float64
	// Variance is the unbiased sample variance (divisor N-1); 0 when
	// N < 2.
	Variance float64
}

// assignmentString renders an assignment in the repository's canonical
// sorted "k=v k=v" form.
func assignmentString(a map[string]string) string {
	return design.Assignment(a).String()
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
	// Negated so that NaN, which compares false with everything, fails.
	if !(o.Confidence > 0 && o.Confidence < 1) {
		return fmt.Errorf("runstore: gate confidence must be in (0,1), got %g", o.Confidence)
	}
	if !(o.Tolerance > 0) || math.IsInf(o.Tolerance, 1) {
		return fmt.Errorf("runstore: gate tolerance must be > 0, got %g", o.Tolerance)
	}
	return nil
}

// CellInterval is the gate's comparison interval for a cell of n values
// with the given mean and sample variance: mean ± t·√variance/√n (the
// stats.MeanCI arithmetic) when n >= 2, else a tolerance·|mean| band
// (tolerance when the mean is 0). The interval's confidence is t's. The
// warehouse's queries call it once per cell; it does not allocate.
func CellInterval(n int, mean, variance, tolerance float64, t *stats.TCritical) stats.Interval {
	if n >= 2 {
		h := t.At(n) * (math.Sqrt(variance) / math.Sqrt(float64(n)))
		return stats.Interval{Mean: mean, Lo: mean - h, Hi: mean + h, Confidence: t.Confidence(), N: n}
	}
	half := tolerance * math.Abs(mean)
	if half == 0 {
		half = tolerance
	}
	return stats.Interval{Mean: mean, Lo: mean - half, Hi: mean + half, Confidence: t.Confidence(), N: n}
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
		byResp := out[row.Hash]
		if byResp == nil {
			byResp = make(map[string]stats.Interval)
			out[row.Hash] = byResp
		}
		byResp[row.Response] = CellInterval(row.N, row.Mean, row.Variance, opt.Tolerance, &t)
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
		f := Finding{Assignment: base.Assignment, Response: base.Response, Base: CellInterval(base.N, base.Mean, base.Variance, opt.Tolerance, &t)}
		if cur, ok := curIdx[k]; ok {
			f.Cur = CellInterval(cur.N, cur.Mean, cur.Variance, opt.Tolerance, &t)
			f.Verdict, f.DeltaPct = CIShift(f.Base, f.Cur)
		} else {
			f.Verdict = Missing
		}
		report.Findings = append(report.Findings, f)
	}
	for _, cur := range current.Rows {
		if seen[key{cur.Hash, cur.Response}] {
			continue
		}
		report.Findings = append(report.Findings, Finding{
			Assignment: cur.Assignment, Response: cur.Response, Cur: CellInterval(cur.N, cur.Mean, cur.Variance, opt.Tolerance, &t), Verdict: Added,
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
