package warehouse

import (
	"cmp"
	"fmt"
	"iter"
	"math"
	"slices"
	"sort"
	"strings"
	"time"

	"repro/internal/design"
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
	// Negated so that NaN, which compares false with everything, fails.
	if !(r.Confidence > 0 && r.Confidence < 1) {
		return fmt.Errorf("warehouse: confidence must be in (0,1), got %g", r.Confidence)
	}
	if !(r.Tolerance > 0) || math.IsInf(r.Tolerance, 1) {
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
// ever read. Runs are ordered oldest first by source modification time.
// A history query naming its cell by selector seeks each run's cells,
// which ingest left in selector order (Run.Cells); one naming it by hash,
// and every other kind, is one pass over the live runs' cells.
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
		res.History = queryHistory(live, req, w.tCritical(req))
	case KindTrends:
		res.Trends = queryTrends(live, req)
	case KindRegressions:
		res.Regressions = queryRegressions(live, req, w.tCritical(req))
	}
	w.met.queries.Inc()
	w.met.querySeconds.Observe(time.Since(start).Seconds())
	return res, nil
}

// tCritical returns the warehouse's t-quantile slot at req's confidence,
// replacing the slot's lookup when req names another level than the
// query before it. Queries rebuild each cell's comparison interval with
// the regression gate's own function, runstore.CellInterval, from the
// cell's stored N, mean and variance; the t-quantile depends only on
// (confidence, N), and the warehouse's cells share a handful of N, so
// queries share one lookup. Called under w.mu; req is filled, so its
// confidence is a number in (0, 1) and equal levels compare equal.
func (w *Warehouse) tCritical(req Request) *stats.TCritical {
	if w.t.Confidence() != req.Confidence {
		w.t = stats.NewTCritical(req.Confidence)
	}
	return &w.t
}

func queryRuns(live []heldRun, req Request) []RunInfo {
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

// queryHistory allocates its points at the first match, room for one per
// run left, and nothing when nothing matches (a nil History).
func queryHistory(live []heldRun, req Request, t *stats.TCritical) []HistoryPoint {
	var out []HistoryPoint
	for ri := range live {
		r := &live[ri]
		for c := range historyCells(r, req) {
			if out == nil {
				out = make([]HistoryPoint, 0, len(live)-ri)
			}
			ci := runstore.CellInterval(c.N, c.Mean, c.Variance, req.Tolerance, t)
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

// historyCells yields the cells of r a history request selects, in r's
// order. On a seekable run, a Request.Cell containing '=' can name cells
// only by selector (seekable), so it binary-searches for the request's
// (experiment, selector) in the one experiment block the request names,
// or in each block when it names none, and reads the span it finds;
// otherwise it scans every cell.
func historyCells(r *heldRun, req Request) iter.Seq[*Cell] {
	return func(yield func(*Cell) bool) {
		cells, read := r.Cells, 0
		if historyReads != nil {
			defer func() { historyReads(read) }()
		}
		if !r.seekable || strings.IndexByte(req.Cell, '=') < 0 {
			read = len(cells)
			for i := range cells {
				c := &cells[i]
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
				if !yield(c) {
					return
				}
			}
			return
		}
		for lo := 0; lo < len(cells); {
			exp := req.Experiment
			if exp == "" {
				exp = cells[lo].Experiment
			}
			// The first cell at or after (exp, selector), then the span of
			// them: the probe sorts first among them, no response being
			// below "".
			probe := Cell{Experiment: exp, selector: req.Cell}
			i := lo + sort.Search(len(cells)-lo, func(j int) bool {
				read++
				return compareCells(&cells[lo+j], &probe) >= 0
			})
			for ; i < len(cells) && cells[i].Experiment == exp && cells[i].selector == req.Cell; i++ {
				read++
				if req.Response != "" && cells[i].Response != req.Response {
					continue
				}
				if !yield(&cells[i]) {
					return
				}
			}
			if req.Experiment != "" {
				return
			}
			// The next experiment's block.
			lo = i + sort.Search(len(cells)-i, func(j int) bool {
				read++
				return cells[i+j].Experiment > exp
			})
		}
	}
}

// historyReads, when set, is told how many cells each run's history pass
// read: a test's window on whether a query seeks (export_test.go).
var historyReads func(cells int)

func queryTrends(live []heldRun, req Request) []TrendLine {
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

func queryRegressions(live []heldRun, req Request, t *stats.TCritical) []RegressionEntry {
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
		r := &live[ri].Run
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
	for _, s := range all {
		if s.base.cell == nil {
			continue
		}
		b, c := s.base.cell, s.cur.cell
		bi := runstore.CellInterval(b.N, b.Mean, b.Variance, req.Tolerance, t)
		ci := runstore.CellInterval(c.N, c.Mean, c.Variance, req.Tolerance, t)
		v, delta := runstore.CIShift(bi, ci)
		if v != runstore.Regressed {
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
			DeltaPct:   delta,
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
			tab.Row(e.Experiment, design.Assignment(e.Assignment).String(), e.Response,
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
