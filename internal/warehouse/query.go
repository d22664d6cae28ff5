package warehouse

import (
	"cmp"
	"fmt"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// Query kinds. Every surface — repro.Query, `perfeval query`, the
// collector's GET /v1/query — speaks these.
const (
	// KindRuns lists the live indexed runs and their shapes.
	KindRuns = "runs"
	// KindHistory lists one cell's aggregate per run, oldest first — the
	// measurement's trajectory across the warehouse.
	KindHistory = "history"
	// KindTrends lists per-(experiment, response) trend lines: each
	// run's mean of cell means, oldest first.
	KindTrends = "trends"
	// KindRegressions lists cells whose newest run shifted against the
	// run before it under the CI-shift rule of the regression gate:
	// disjoint confidence intervals with a higher current mean.
	KindRegressions = "regressions"
)

// Request is one warehouse question. Kind selects the question; the
// filters narrow it; Confidence and Tolerance tune the rebuilt
// intervals exactly like runstore.GateOptions.
type Request struct {
	// Kind is one of KindRuns, KindHistory, KindTrends, KindRegressions.
	Kind string `json:"kind"`
	// Experiment filters to one experiment. Every kind takes it and none
	// needs it: a history query without one lists the selected cell under
	// every experiment that has it.
	Experiment string `json:"experiment,omitempty"`
	// Cell selects one design cell for history queries, by assignment
	// hash or by the canonical sorted "k=v k=v" assignment string.
	Cell string `json:"cell,omitempty"`
	// Response filters to one response name.
	Response string `json:"response,omitempty"`
	// Confidence for the rebuilt Student-t intervals (default 0.95).
	Confidence float64 `json:"confidence,omitempty"`
	// Tolerance is the relative half-width assumed for single-replicate
	// cells, where no confidence interval exists (default 0.05).
	Tolerance float64 `json:"tolerance,omitempty"`
	// Limit, when > 0, keeps only the newest Limit runs, history points,
	// or trend points (and caps the regression listing).
	Limit int `json:"limit,omitempty"`
}

func (r *Request) fill() error {
	if r.Kind == "" {
		r.Kind = KindRuns
	}
	switch r.Kind {
	case KindRuns, KindHistory, KindTrends, KindRegressions:
	default:
		return fmt.Errorf("warehouse: unknown query kind %q (want %s|%s|%s|%s)",
			r.Kind, KindRuns, KindHistory, KindTrends, KindRegressions)
	}
	if r.Kind == KindHistory && r.Cell == "" {
		return fmt.Errorf("warehouse: history query needs a cell (assignment hash or \"k=v k=v\" string)")
	}
	if r.Confidence == 0 {
		r.Confidence = 0.95
	}
	if r.Tolerance == 0 {
		r.Tolerance = 0.05
	}
	if r.Confidence <= 0 || r.Confidence >= 1 {
		return fmt.Errorf("warehouse: confidence must be in (0,1), got %g", r.Confidence)
	}
	if r.Tolerance <= 0 {
		return fmt.Errorf("warehouse: tolerance must be > 0, got %g", r.Tolerance)
	}
	if r.Limit < 0 {
		return fmt.Errorf("warehouse: limit must be >= 0, got %d", r.Limit)
	}
	return nil
}

// RunInfo is one run's shape in a KindRuns listing.
type RunInfo struct {
	Path         string   `json:"path"`
	Format       string   `json:"format"`
	Records      int      `json:"records"`
	Cells        int      `json:"cells"`
	Experiments  []string `json:"experiments,omitempty"`
	ModTimeNS    int64    `json:"mod_time_ns"`
	IngestTimeNS int64    `json:"ingest_time_ns"`
}

// HistoryPoint is one run's aggregate of the queried cell, with the
// confidence interval rebuilt from (n, mean, variance).
type HistoryPoint struct {
	Run          string `json:"run"`
	ModTimeNS    int64  `json:"mod_time_ns"`
	IngestTimeNS int64  `json:"ingest_time_ns"`
	Experiment   string `json:"experiment"`
	Hash         string `json:"hash"`
	// Assignment is the index's own map, the one every aggregate of the
	// design cell holds in every run: read-only.
	Assignment map[string]string `json:"assignment"`
	Response   string            `json:"response"`
	N          int               `json:"n"`
	Mean       float64           `json:"mean"`
	Variance   float64           `json:"variance"`
	Lo         float64           `json:"lo"`
	Hi         float64           `json:"hi"`
	Confidence float64           `json:"confidence"`
}

// TrendPoint is one run on a trend line.
type TrendPoint struct {
	Run       string  `json:"run"`
	ModTimeNS int64   `json:"mod_time_ns"`
	Cells     int     `json:"cells"`
	Mean      float64 `json:"mean"` // mean of the run's cell means
}

// TrendLine is one (experiment, response) series across runs.
type TrendLine struct {
	Experiment string       `json:"experiment"`
	Response   string       `json:"response"`
	Points     []TrendPoint `json:"points"`
}

// RegressionEntry is one cell whose newest run regressed against the
// run before it: disjoint confidence intervals, higher current mean —
// the same rule as runstore.Gate.
type RegressionEntry struct {
	Experiment string `json:"experiment"`
	Hash       string `json:"hash"`
	// Assignment is the index's own map, the one every aggregate of the
	// design cell holds in every run: read-only.
	Assignment map[string]string `json:"assignment"`
	Response   string            `json:"response"`
	BaseRun    string            `json:"base_run"`
	CurRun     string            `json:"cur_run"`
	Base       stats.Interval    `json:"base"`
	Cur        stats.Interval    `json:"cur"`
	DeltaPct   float64           `json:"delta_pct"`
}

// Result is one query's answer. Exactly one of the payload slices is
// populated, matching Kind.
type Result struct {
	Kind        string            `json:"kind"`
	Runs        []RunInfo         `json:"runs,omitempty"`
	History     []HistoryPoint    `json:"history,omitempty"`
	Trends      []TrendLine       `json:"trends,omitempty"`
	Regressions []RegressionEntry `json:"regressions,omitempty"`
}

// Query answers one Request from the index alone — no record block is
// ever read — in one pass over the live runs' cells. Runs are ordered
// oldest first by source modification time.
func (w *Warehouse) Query(req Request) (*Result, error) {
	start := time.Now()
	w.mu.Lock()
	defer w.mu.Unlock()
	if err := req.fill(); err != nil {
		return nil, err
	}
	live := w.liveRuns()
	res := &Result{Kind: req.Kind}
	switch req.Kind {
	case KindRuns:
		res.Runs = queryRuns(live, req)
	case KindHistory:
		res.History = queryHistory(live, req)
	case KindTrends:
		res.Trends = queryTrends(live, req)
	case KindRegressions:
		res.Regressions = queryRegressions(live, req)
	}
	w.met.queries.Inc()
	w.met.querySeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// intervals rebuilds cells' comparison intervals for one query,
// mirroring the regression gate's rules term for term: a Student-t
// interval when N >= 2 (the exact stats.MeanCI arithmetic, with the
// standard error recovered from the stored variance), a relative
// tolerance band for single-replicate cells. The t-quantile depends only
// on (confidence, N), and a query's cells share a handful of N, so the
// query holds one stats.TCritical — the gate's lookup — for its pass.
type intervals struct {
	confidence, tolerance float64
	t                     stats.TCritical
}

func newIntervals(req Request) intervals {
	return intervals{confidence: req.Confidence, tolerance: req.Tolerance, t: stats.NewTCritical(req.Confidence)}
}

func (iv *intervals) of(c *Cell) stats.Interval {
	if c.N >= 2 {
		t := iv.t.At(c.N)
		se := math.Sqrt(c.Variance) / math.Sqrt(float64(c.N))
		return stats.Interval{Mean: c.Mean, Lo: c.Mean - t*se, Hi: c.Mean + t*se, Confidence: iv.confidence, N: c.N}
	}
	half := iv.tolerance * math.Abs(c.Mean)
	if half == 0 {
		half = iv.tolerance
	}
	return stats.Interval{Mean: c.Mean, Lo: c.Mean - half, Hi: c.Mean + half, Confidence: iv.confidence, N: c.N}
}

func queryRuns(live []Run, req Request) []RunInfo {
	var out []RunInfo
	for _, r := range live {
		exps := make(map[string]bool)
		cells := 0
		for _, c := range r.Cells {
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			exps[c.Experiment] = true
			cells++
		}
		if req.Experiment != "" && cells == 0 {
			continue
		}
		info := RunInfo{
			Path:         r.Path,
			Format:       r.Format,
			Records:      r.Records,
			Cells:        cells,
			ModTimeNS:    r.ModTimeNS,
			IngestTimeNS: r.IngestTimeNS,
		}
		for e := range exps {
			info.Experiments = append(info.Experiments, e)
		}
		sort.Strings(info.Experiments)
		out = append(out, info)
	}
	return tail(out, req.Limit)
}

func queryHistory(live []Run, req Request) []HistoryPoint {
	var out []HistoryPoint
	iv := newIntervals(req)
	for ri := range live {
		r := &live[ri]
		for i := range r.Cells {
			c := &r.Cells[i]
			// The selector first: it is the filter that rejects most cells.
			if req.Cell != c.selector && req.Cell != c.Hash {
				continue
			}
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			if req.Response != "" && c.Response != req.Response {
				continue
			}
			ci := iv.of(c)
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
				Lo:           ci.Lo,
				Hi:           ci.Hi,
				Confidence:   ci.Confidence,
			})
		}
	}
	return tail(out, req.Limit)
}

func queryTrends(live []Run, req Request) []TrendLine {
	type lineKey struct{ experiment, response string }
	lines := make(map[lineKey]*TrendLine)
	var order []lineKey
	for _, r := range live {
		type agg struct {
			sum   float64
			cells int
		}
		perLine := make(map[lineKey]*agg)
		for _, c := range r.Cells {
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			if req.Response != "" && c.Response != req.Response {
				continue
			}
			k := lineKey{c.Experiment, c.Response}
			a := perLine[k]
			if a == nil {
				a = &agg{}
				perLine[k] = a
			}
			a.sum += c.Mean
			a.cells++
		}
		for k, a := range perLine {
			l := lines[k]
			if l == nil {
				l = &TrendLine{Experiment: k.experiment, Response: k.response}
				lines[k] = l
				order = append(order, k)
			}
			l.Points = append(l.Points, TrendPoint{
				Run:       r.Path,
				ModTimeNS: r.ModTimeNS,
				Cells:     a.cells,
				Mean:      a.sum / float64(a.cells),
			})
		}
	}
	sort.Slice(order, func(i, j int) bool {
		if order[i].experiment != order[j].experiment {
			return order[i].experiment < order[j].experiment
		}
		return order[i].response < order[j].response
	})
	out := make([]TrendLine, 0, len(order))
	for _, k := range order {
		l := lines[k]
		l.Points = tail(l.Points, req.Limit)
		out = append(out, *l)
	}
	return out
}

func queryRegressions(live []Run, req Request) []RegressionEntry {
	type point struct {
		run  *Run
		cell *Cell
	}
	type cellKey struct{ experiment, hash, response string }
	// One cell's two newest selected points.
	type series struct {
		cellKey
		base, cur point
	}
	at := make(map[cellKey]int)
	var all []series
	for ri := range live {
		r := &live[ri]
		for ci := range r.Cells {
			c := &r.Cells[ci]
			if req.Cell != "" && req.Cell != c.selector && req.Cell != c.Hash {
				continue
			}
			if req.Experiment != "" && c.Experiment != req.Experiment {
				continue
			}
			if req.Response != "" && c.Response != req.Response {
				continue
			}
			k := cellKey{c.Experiment, c.Hash, c.Response}
			i, ok := at[k]
			if !ok {
				i = len(all)
				at[k] = i
				all = append(all, series{cellKey: k})
			}
			s := &all[i]
			s.base, s.cur = s.cur, point{r, c}
		}
	}
	slices.SortFunc(all, func(a, b series) int {
		return cmp.Or(
			strings.Compare(a.experiment, b.experiment),
			strings.Compare(a.hash, b.hash),
			strings.Compare(a.response, b.response))
	})
	var out []RegressionEntry
	iv := newIntervals(req)
	for _, s := range all {
		if s.base.cell == nil {
			continue
		}
		bi, ci := iv.of(s.base.cell), iv.of(s.cur.cell)
		// The gate's CI-shift rule: overlapping intervals are unchanged,
		// disjoint with a higher current mean is a regression.
		if bi.Overlaps(ci) || ci.Mean <= bi.Mean {
			continue
		}
		e := RegressionEntry{
			Experiment: s.experiment,
			Hash:       s.hash,
			Assignment: s.cur.cell.Assignment,
			Response:   s.response,
			BaseRun:    s.base.run.Path,
			CurRun:     s.cur.run.Path,
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

// tail keeps the newest n elements of a run-ordered slice (all when
// n <= 0).
func tail[T any](xs []T, n int) []T {
	if n > 0 && len(xs) > n {
		return xs[len(xs)-n:]
	}
	return xs
}

// String renders the result as the repository's aligned table.
func (res *Result) String() string {
	var b strings.Builder
	switch res.Kind {
	case KindRuns:
		fmt.Fprintf(&b, "warehouse runs: %d\n", len(res.Runs))
		tab := harness.NewTable().Header("run", "format", "records", "cells", "experiments", "modified")
		for _, r := range res.Runs {
			tab.Row(r.Path, r.Format, fmt.Sprintf("%d", r.Records), fmt.Sprintf("%d", r.Cells),
				strings.Join(r.Experiments, ","), fmtTimeNS(r.ModTimeNS))
		}
		b.WriteString(tab.String())
	case KindHistory:
		fmt.Fprintf(&b, "cell history: %d points\n", len(res.History))
		tab := harness.NewTable().Header("run", "experiment", "response", "n", "mean", "ci", "modified")
		for _, p := range res.History {
			tab.Row(p.Run, p.Experiment, p.Response, fmt.Sprintf("%d", p.N),
				fmt.Sprintf("%.4g", p.Mean), fmt.Sprintf("[%.4g, %.4g]", p.Lo, p.Hi), fmtTimeNS(p.ModTimeNS))
		}
		b.WriteString(tab.String())
	case KindTrends:
		fmt.Fprintf(&b, "trend lines: %d\n", len(res.Trends))
		for _, l := range res.Trends {
			fmt.Fprintf(&b, "%s / %s (%d points)\n", l.Experiment, l.Response, len(l.Points))
			tab := harness.NewTable().Header("run", "cells", "mean", "modified")
			for _, p := range l.Points {
				tab.Row(p.Run, fmt.Sprintf("%d", p.Cells), fmt.Sprintf("%.4g", p.Mean), fmtTimeNS(p.ModTimeNS))
			}
			b.WriteString(tab.String())
		}
	case KindRegressions:
		fmt.Fprintf(&b, "regressions: %d\n", len(res.Regressions))
		tab := harness.NewTable().Header("experiment", "assignment", "response", "base", "current", "delta%", "verdict")
		for _, e := range res.Regressions {
			tab.Row(e.Experiment, assignmentString(e.Assignment), e.Response,
				fmt.Sprintf("%.4g ±%.2g", e.Base.Mean, e.Base.HalfWidth()),
				fmt.Sprintf("%.4g ±%.2g", e.Cur.Mean, e.Cur.HalfWidth()),
				fmt.Sprintf("%+.1f", e.DeltaPct), runstore.Regressed.String())
		}
		b.WriteString(tab.String())
	}
	return b.String()
}

// fmtTimeNS renders a Unix-nanosecond timestamp the way reports do.
func fmtTimeNS(ns int64) string {
	return time.Unix(0, ns).UTC().Format("2006-01-02 15:04:05")
}
