package adaptive

import (
	"fmt"
	"math"
	"sync"

	"repro/internal/runstore"
	"repro/internal/stats"
)

// Defaults for the zero values of Options, exported so front-ends (the
// perfeval banner) report the same numbers the controller applies.
// DefaultConfidence is the confidence of every running interval; it is
// not an option.
const (
	DefaultRel        = 0.05
	DefaultConfidence = 0.95
	DefaultMin        = 3
	DefaultMax        = 50
)

// Options tune a Controller.
type Options struct {
	// Rel is the stopping target: replication stops once the cell's
	// confidence interval has relative half-width <= Rel for every
	// declared response (default DefaultRel, the mean known to ±5%). A
	// cell flagged against its baseline is held to Rel/2.
	Rel float64
	// Min is the number of replicates every cell gets before the
	// stopping rule may fire (default 3). Precision claims need at
	// least 2; journal-replayed replicates count.
	Min int
	// Max caps the replicates any one cell may spend (default 50). A
	// cell that exhausts Max stops regardless of achieved precision.
	Max int
}

func (o *Options) fill() error {
	if o.Rel == 0 {
		o.Rel = DefaultRel
	}
	if o.Min == 0 {
		o.Min = DefaultMin
	}
	if o.Max == 0 {
		o.Max = DefaultMax
	}
	switch {
	// Negated so that NaN, which compares false with everything, fails.
	case !(o.Rel > 0) || math.IsInf(o.Rel, 1):
		return fmt.Errorf("adaptive: Rel target must be > 0, got %g", o.Rel)
	case o.Min < 1:
		return fmt.Errorf("adaptive: Min = %d, need >= 1", o.Min)
	case o.Max < o.Min:
		return fmt.Errorf("adaptive: Max = %d < Min = %d", o.Max, o.Min)
	}
	return nil
}

// cell is the controller's per-cell state. Observations are stored
// indexed by replicate, so the values underlying every decision are in
// replicate order regardless of the completion order within a batch —
// floating-point summation order, and with it every decision, stays
// deterministic.
type cell struct {
	obs      map[string][]float64 // response -> values indexed by replicate
	observed int                  // distinct replicates ingested
	flagged  bool                 // gate-flagged: tight target, scheduled first
	stopped  string               // human-readable stop reason, set on the stopping decision
}

// Controller is the CI-targeted stopping rule the scheduler asks, cell
// by cell, how much replication is enough (sched.Options.Controller).
// Safe for concurrent use.
type Controller struct {
	opts Options
	mu   sync.Mutex
	base map[string]map[string]stats.Interval // cell key -> response -> baseline interval
	c    map[string]*cell
}

// New returns a Controller. Options left zero take their documented
// defaults; contradictory options are an error.
func New(opts Options) (*Controller, error) {
	if err := opts.fill(); err != nil {
		return nil, err
	}
	return &Controller{
		opts: opts,
		base: map[string]map[string]stats.Interval{},
		c:    map[string]*cell{},
	}, nil
}

// AddBaseline registers one experiment's baseline summary; its cells
// become eligible for mid-run drift flagging: a cell whose running
// interval is disjoint from and above its baseline interval (the gate's
// "regressed" verdict) is held to Rel/2 and scheduled first from then on.
// The baseline intervals are the gate's, at its defaults (95%
// confidence, a 5% tolerance band for single-replicate cells). Several
// experiments may be registered on one controller.
func (ctrl *Controller) AddBaseline(s *runstore.Summary) error {
	ivs, err := s.Intervals(runstore.GateOptions{})
	if err != nil {
		return err
	}
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	for hash, byResp := range ivs {
		ctrl.base[runstore.CellKey(s.Experiment, hash)] = byResp
	}
	return nil
}

// Prioritize flags cells by key (runstore.CellKey form): tighter target,
// scheduled ahead of unflagged cells. Shipped runs flag cells by baseline
// drift (AddBaseline); TestAdaptivePrioritySchedulesFlaggedFirst flags
// one before any replicate is observed, which drift cannot.
func (ctrl *Controller) Prioritize(keys ...string) {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	for _, k := range keys {
		ctrl.get(k).flagged = true
	}
}

func (ctrl *Controller) get(key string) *cell {
	cl := ctrl.c[key]
	if cl == nil {
		cl = &cell{obs: map[string][]float64{}}
		ctrl.c[key] = cl
	}
	return cl
}

// Observe ingests one completed replicate of a cell — live or replayed
// from the store — restricted to the experiment's declared responses.
func (ctrl *Controller) Observe(key string, replicate int, responses map[string]float64) {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	cl := ctrl.get(key)
	for name, v := range responses {
		s := cl.obs[name]
		for len(s) <= replicate {
			s = append(s, math.NaN())
		}
		s[replicate] = v
		cl.obs[name] = s
	}
	cl.observed++
}

// Target is the sequential-analysis stopping rule: the total number of
// replicates the cell should reach, given that observed have completed.
// A value <= observed stops the cell; a larger one asks for the
// difference as the next batch, and the first call (observed is 0)
// returns at least Min >= 1. Called at batch boundaries, with replicates
// 0..observed-1 all ingested.
func (ctrl *Controller) Target(key string, observed int) int {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	cl := ctrl.get(key)
	o := ctrl.opts

	// Baseline drift check on the complete prefix: once a cell's running
	// interval is disjoint from and above its baseline, it is flagged for
	// the rest of the run (sticky — evidence of a regression does not
	// expire because later replicates narrow the interval).
	if !cl.flagged && observed >= 2 {
		if byResp, ok := ctrl.base[key]; ok {
			for name, bi := range byResp {
				iv, err := stats.MeanCI(prefix(cl.obs[name], observed), DefaultConfidence)
				if err != nil {
					continue
				}
				if v, _ := runstore.CIShift(bi, iv); v == runstore.Regressed {
					cl.flagged = true
					break
				}
			}
		}
	}
	rel := o.Rel
	if cl.flagged {
		rel = o.Rel / 2
	}

	if observed < o.Min {
		return o.Min
	}
	worst := cl.worstRel(observed)
	switch {
	case observed >= 2 && worst <= rel:
		cl.stopped = fmt.Sprintf("rel ±%.1f%% ≤ %.1f%% after %d reps", worst*100, rel*100, observed)
		return observed
	case observed >= o.Max:
		cl.stopped = fmt.Sprintf("max budget %d reps, rel ±%.1f%% > %.1f%%", o.Max, worst*100, rel*100)
		return observed
	default:
		return observed + 1
	}
}

// worstRel returns the worst (largest) relative CI half-width across the
// cell's responses over replicates 0..n-1, or +Inf while n < 2.
func (cl *cell) worstRel(n int) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, values := range cl.obs {
		iv, err := stats.MeanCI(prefix(values, n), DefaultConfidence)
		if err != nil {
			return math.Inf(1)
		}
		if r := iv.RelHalfWidth(); r > worst {
			worst = r
		}
	}
	return worst
}

// prefix returns the first n values (fewer only if the slice is short —
// a response the runner stopped emitting would fail validation earlier).
func prefix(values []float64, n int) []float64 {
	if n > len(values) {
		n = len(values)
	}
	return values[:n]
}

// Priority reports whether the cell is flagged, to be scheduled ahead of
// unflagged cells.
func (ctrl *Controller) Priority(key string) bool {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	return ctrl.get(key).flagged
}

// Explain renders a short account of the cell's state — achieved
// precision, applied target, stop reason — for budget reports.
func (ctrl *Controller) Explain(key string) string {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	cl := ctrl.get(key)
	msg := cl.stopped
	if msg == "" {
		msg = fmt.Sprintf("undecided after %d reps", cl.observed)
	}
	if cl.flagged {
		msg = "gate-flagged: " + msg
	}
	return msg
}
