package repro

import (
	"fmt"
	"sort"

	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// GateOptions tune the regression gate: confidence level and relative
// tolerance of the CI-shift test.
type GateOptions = runstore.GateOptions

// GateReport is the per-experiment outcome of gating a run against a
// baseline.
type GateReport = runstore.GateReport

// DiffEntry is one baseline experiment's fate in a Diff: its gate
// report, or its absence from the current run (Report == nil), which
// fails the gate just like a regression — "we no longer measure it"
// must never read as "it did not regress".
type DiffEntry struct {
	Experiment string
	// Report is the gate outcome; nil when the experiment is absent
	// from the current run.
	Report *GateReport
	// MissingCells is how many baseline cells went unmeasured: all of
	// them when Report is nil, otherwise the per-cell Missing findings.
	MissingCells int
}

// DiffResult is the outcome of gating one store file against a
// baseline, experiment by experiment in baseline order.
type DiffResult struct {
	// Entries covers every baseline experiment in order.
	Entries []DiffEntry
	// CurrentOnly lists experiments present only in the current run
	// (sorted); they are reported, not gated.
	CurrentOnly []string
	// Regressions and Missing count the failing cells across entries.
	Regressions int
	Missing     int
}

// Failed reports whether the gate should fail: any regressed or
// missing cell.
func (d *DiffResult) Failed() bool { return d.Regressions > 0 || d.Missing > 0 }

// Diff summarizes two store files (journals or archives) per
// (assignment, response) — each read once, by warehouse.Summarize, into
// per-cell count, mean and variance, never into records — and applies
// the regression gate (internal/runstore) experiment by experiment: the
// library form of `perfeval diff`.
func Diff(baseline, current string, opt GateOptions) (*DiffResult, error) {
	baseSums, err := warehouse.Summarize(baseline)
	if err != nil {
		return nil, err
	}
	curSums, err := warehouse.Summarize(current)
	if err != nil {
		return nil, err
	}
	curByExp := map[string]*runstore.Summary{}
	for _, s := range curSums {
		curByExp[s.Experiment] = s
	}
	if len(baseSums) == 0 {
		return nil, fmt.Errorf("baseline %s holds no measurements", baseline)
	}
	if len(curByExp) == 0 {
		return nil, fmt.Errorf("current %s holds no measurements (crashed before the first append?)", current)
	}
	d := &DiffResult{}
	for _, base := range baseSums {
		cur, ok := curByExp[base.Experiment]
		if !ok {
			d.Entries = append(d.Entries, DiffEntry{Experiment: base.Experiment, MissingCells: len(base.Rows)})
			d.Missing += len(base.Rows)
			continue
		}
		delete(curByExp, base.Experiment)
		report, err := runstore.Gate(base, cur, opt)
		if err != nil {
			return nil, err
		}
		entry := DiffEntry{Experiment: base.Experiment, Report: report}
		for _, f := range report.Findings {
			if f.Verdict == runstore.Missing {
				entry.MissingCells++
			}
		}
		d.Entries = append(d.Entries, entry)
		d.Regressions += len(report.Regressions())
		d.Missing += entry.MissingCells
	}
	for name := range curByExp {
		d.CurrentOnly = append(d.CurrentOnly, name)
	}
	sort.Strings(d.CurrentOnly)
	return d, nil
}
