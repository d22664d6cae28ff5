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
	// declared response (default DefaultRel, the mean known to ±5%).
	Rel float64
	// TightRel is the target applied to flagged cells (default Rel/2).
	TightRel float64
	// Confidence of the running intervals (default 0.95).
	Confidence float64
	// Min is the number of replicates every cell gets before the
	// stopping rule may fire (default 3). Precision claims need at
	// least 2; journal-replayed replicates count.
	Min int
	// Max caps the replicates any one cell may spend (default 50). A
	// cell that exhausts Max stops regardless of achieved precision.
	Max int
	// Baseline, when set, is compared against each cell's running
	// interval: a cell whose interval is disjoint from and above its
	// baseline interval (the gate's "regressed" verdict) is flagged —
	// tighter target, scheduled first from then on. Summaries for
	// several experiments may be supplied via AddBaseline.
	Baseline *runstore.Summary
	// BaselineOpt builds the baseline intervals (zero value = the
	// regression gate's defaults: 95% confidence, 5% tolerance band for
	// single-replicate cells).
	BaselineOpt runstore.GateOptions
}

func (o *Options) fill() error {
	if o.Rel == 0 {
		o.Rel = DefaultRel
	}
	if o.TightRel == 0 {
		o.TightRel = o.Rel / 2
	}
	if o.Confidence == 0 {
		o.Confidence = DefaultConfidence
	}
	if o.Min == 0 {
		o.Min = DefaultMin
	}
	if o.Max == 0 {
		o.Max = DefaultMax
	}
	switch {
	case o.Rel <= 0:
		return fmt.Errorf("adaptive: Rel target must be > 0, got %g", o.Rel)
	case o.TightRel <= 0 || o.TightRel > o.Rel:
		return fmt.Errorf("adaptive: TightRel must be in (0, Rel], got %g", o.TightRel)
	case o.Confidence <= 0 || o.Confidence >= 1:
		return fmt.Errorf("adaptive: confidence must be in (0,1), got %g", o.Confidence)
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

// Controller implements sched.Controller with the CI-targeted stopping
// rule. Safe for concurrent use.
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
	ctrl := &Controller{
		opts: opts,
		base: map[string]map[string]stats.Interval{},
		c:    map[string]*cell{},
	}
	if opts.Baseline != nil {
		if err := ctrl.AddBaseline(opts.Baseline); err != nil {
			return nil, err
		}
	}
	return ctrl, nil
}

// AddBaseline registers one experiment's baseline summary; its cells
// become eligible for mid-run drift flagging. Several experiments may
// be registered on one controller.
func (ctrl *Controller) AddBaseline(s *runstore.Summary) error {
	ivs, err := s.Intervals(ctrl.opts.BaselineOpt)
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

// Observe implements sched.Controller.
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

// Target implements sched.Controller: the sequential-analysis stopping
// rule. Called at batch boundaries, with replicates 0..observed-1 all
// ingested.
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
				iv, err := stats.MeanCI(prefix(cl.obs[name], observed), o.Confidence)
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
		rel = o.TightRel
	}

	if observed < o.Min {
		return o.Min
	}
	worst := cl.worstRel(observed, o.Confidence)
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
func (cl *cell) worstRel(n int, confidence float64) float64 {
	if n < 2 {
		return math.Inf(1)
	}
	worst := 0.0
	for _, values := range cl.obs {
		iv, err := stats.MeanCI(prefix(values, n), confidence)
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

// Priority implements sched.Controller.
func (ctrl *Controller) Priority(key string) bool {
	ctrl.mu.Lock()
	defer ctrl.mu.Unlock()
	return ctrl.get(key).flagged
}

// Explain implements sched.Controller.
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
