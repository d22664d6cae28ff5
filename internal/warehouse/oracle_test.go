package warehouse

import (
	"math"
	"slices"
	"sort"

	"repro/internal/design"
	"repro/internal/stats"
)

// The reference implementation of the three query kinds this package
// answers differently from how it first did: the history and regression
// passes Query ran when it rendered every cell's assignment string and
// evaluated a t-quantile per cell, kept word for word, and the run
// listing's walk over every cell — the oracle Query is held to (oracle
// tests, and the property test's interval check). Trend lines are still
// answered the way they were. Nothing in the product calls these.

// referenceQuery answers a runs, history or regressions request the old
// way.
func referenceQuery(live []Run, req Request) (*Result, error) {
	if err := req.fill(); err != nil {
		return nil, err
	}
	res := &Result{Kind: req.Kind}
	switch req.Kind {
	case KindRuns:
		res.Runs = referenceRuns(live, req)
	case KindHistory:
		res.History = referenceHistory(live, req)
	case KindRegressions:
		res.Regressions = referenceRegressions(live, req)
	default:
		panic("no reference for query kind " + req.Kind)
	}
	return res, nil
}

// cellInterval rebuilds a cell's comparison interval from its stored
// aggregates, mirroring the regression gate's rules term for term: a
// Student-t interval when N >= 2 (the exact stats.MeanCI arithmetic,
// with the standard error recovered from the stored variance), a
// relative tolerance band for single-replicate cells.
func cellInterval(c Cell, confidence, tolerance float64) stats.Interval {
	if c.N >= 2 {
		se := math.Sqrt(c.Variance) / math.Sqrt(float64(c.N))
		alpha := 1 - confidence
		t := stats.TQuantile(1-alpha/2, float64(c.N-1))
		return stats.Interval{Mean: c.Mean, Lo: c.Mean - t*se, Hi: c.Mean + t*se, Confidence: confidence, N: c.N}
	}
	half := tolerance * math.Abs(c.Mean)
	if half == 0 {
		half = tolerance
	}
	return stats.Interval{Mean: c.Mean, Lo: c.Mean - half, Hi: c.Mean + half, Confidence: confidence, N: c.N}
}

// matchCell reports whether sel (an assignment hash or a canonical
// assignment string) selects c.
func matchCell(c Cell, sel string) bool {
	return sel == c.Hash || sel == design.Assignment(c.Assignment).String()
}

// referenceRuns counts every run's cells, per experiment, by a walk over
// all of them.
func referenceRuns(live []Run, req Request) []RunInfo {
	var out []RunInfo
	for _, r := range live {
		var exps []string
		cells := 0
		for _, c := range r.Cells {
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			if !slices.Contains(exps, c.Experiment) {
				exps = append(exps, c.Experiment)
			}
			cells++
		}
		if req.Experiment != "" && cells == 0 {
			continue
		}
		slices.Sort(exps)
		out = append(out, RunInfo{
			Path:         r.Path,
			Format:       r.Format,
			Records:      r.Records,
			Cells:        cells,
			Experiments:  exps,
			ModTimeNS:    r.ModTimeNS,
			IngestTimeNS: r.IngestTimeNS,
		})
	}
	return tail(out, req.Limit)
}

func referenceHistory(live []Run, req Request) []HistoryPoint {
	var out []HistoryPoint
	for _, r := range live {
		for _, c := range r.Cells {
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			if req.Response != "" && c.Response != req.Response {
				continue
			}
			if !matchCell(c, req.Cell) {
				continue
			}
			iv := cellInterval(c, req.Confidence, req.Tolerance)
			out = append(out, HistoryPoint{
				Run:          r.Path,
				ModTimeNS:    r.ModTimeNS,
				IngestTimeNS: r.IngestTimeNS,
				Experiment:   c.Experiment,
				Hash:         c.Hash,
				Assignment:   c.Assignment,
				Response:     c.Response,
				N:            c.N,
				Mean:         c.Mean,
				Variance:     c.Variance,
				Lo:           iv.Lo,
				Hi:           iv.Hi,
				Confidence:   iv.Confidence,
			})
		}
	}
	return tail(out, req.Limit)
}

func referenceRegressions(live []Run, req Request) []RegressionEntry {
	type cellRef struct {
		run  string
		cell Cell
	}
	type cellKey struct{ experiment, hash, response string }
	series := make(map[cellKey][]cellRef)
	var order []cellKey
	for _, r := range live {
		for _, c := range r.Cells {
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			if req.Response != "" && c.Response != req.Response {
				continue
			}
			if req.Cell != "" && !matchCell(c, req.Cell) {
				continue
			}
			k := cellKey{c.Experiment, c.Hash, c.Response}
			if series[k] == nil {
				order = append(order, k)
			}
			series[k] = append(series[k], cellRef{run: r.Path, cell: c})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		a, b := order[i], order[j]
		if a.experiment != b.experiment {
			return a.experiment < b.experiment
		}
		if a.hash != b.hash {
			return a.hash < b.hash
		}
		return a.response < b.response
	})
	var out []RegressionEntry
	for _, k := range order {
		refs := series[k]
		if len(refs) < 2 {
			continue
		}
		base, cur := refs[len(refs)-2], refs[len(refs)-1]
		bi := cellInterval(base.cell, req.Confidence, req.Tolerance)
		ci := cellInterval(cur.cell, req.Confidence, req.Tolerance)
		// The gate's CI-shift rule: overlapping intervals are unchanged,
		// disjoint with a higher current mean is a regression.
		if bi.Overlaps(ci) || ci.Mean <= bi.Mean {
			continue
		}
		e := RegressionEntry{
			Experiment: k.experiment,
			Hash:       k.hash,
			Assignment: cur.cell.Assignment,
			Response:   k.response,
			BaseRun:    base.run,
			CurRun:     cur.run,
			Base:       bi,
			Cur:        ci,
		}
		if bi.Mean != 0 {
			e.DeltaPct = (ci.Mean - bi.Mean) / math.Abs(bi.Mean) * 100
		}
		out = append(out, e)
		if req.Limit > 0 && len(out) == req.Limit {
			break
		}
	}
	return out
}
