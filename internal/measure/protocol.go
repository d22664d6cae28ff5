package measure

import (
	"fmt"
	"sort"
	"time"
)

// RunState says whether a measured run starts cold or hot. The paper's
// definitions (slide 32):
//
//   - Cold: "a run of the query right after a DBMS is started and no
//     (benchmark-relevant) data is preloaded into the system's main memory,
//     neither by the DBMS, nor in filesystem caches."
//   - Hot: "a run of a query such that as much (query-relevant) data is
//     available as close to the CPU as possible when the measured run
//     starts", e.g. by running the query at least once beforehand.
//
// "Be aware and document what you do / choose."
type RunState int

const (
	// Cold runs flush all cached state before every measured run.
	Cold RunState = iota
	// Hot runs warm the caches before measuring.
	Hot
)

func (s RunState) String() string {
	if s == Cold {
		return "cold"
	}
	return "hot"
}

// Pick selects the representative sample from a series of measured runs.
type Pick int

const (
	// PickLast reports the last run — the paper's own choice ("measured
	// last of three consecutive runs").
	PickLast Pick = iota
	// PickMedian reports the run with the median real time.
	PickMedian
	// PickMean reports the component-wise mean of all runs.
	PickMean
	// PickMin reports the run with the minimum real time.
	PickMin
)

func (p Pick) String() string {
	switch p {
	case PickLast:
		return "last"
	case PickMedian:
		return "median"
	case PickMean:
		return "mean"
	case PickMin:
		return "min"
	default:
		return fmt.Sprintf("Pick(%d)", int(p))
	}
}

// Target is the system under measurement. Reset prepares the desired cache
// state before a measured run: for Cold it must flush caches/buffers (the
// equivalent of the paper's "system reboot or ... flushing filesystem
// caches"); for Hot it may leave warmed state in place.
type Target interface {
	// Reset prepares the run state. Called before every measured run and
	// before every warm-up run.
	Reset(state RunState) error
	// Run performs one complete execution of the measured task.
	Run() error
}

// TargetFuncs adapts plain functions to the Target interface.
type TargetFuncs struct {
	ResetFunc func(state RunState) error
	RunFunc   func() error
}

// Reset implements Target; a nil ResetFunc is a no-op.
func (t TargetFuncs) Reset(state RunState) error {
	if t.ResetFunc == nil {
		return nil
	}
	return t.ResetFunc(state)
}

// Run implements Target.
func (t TargetFuncs) Run() error {
	if t.RunFunc == nil {
		return fmt.Errorf("measure: TargetFuncs.RunFunc is nil")
	}
	return t.RunFunc()
}

// Protocol describes how to run and summarize a measurement series.
type Protocol struct {
	Clock  Clock
	State  RunState // cold or hot runs
	Warmup int      // unmeasured runs before measuring (only meaningful when hot)
	Runs   int      // measured runs (>= 1)
	Pick   Pick     // how to choose the representative sample
	// CheckResolution probes the clock's resolution before measuring and
	// attaches a warning to the result when any measured run is shorter
	// than ResolutionMargin times the resolution — the paper warns that
	// default timer resolution "can be as low as 10 milliseconds", which
	// silently quantizes short runs.
	CheckResolution bool
}

// ResolutionMargin is the minimum run-to-resolution ratio below which a
// measurement is flagged as quantization-prone.
const ResolutionMargin = 100

// LastOfThreeHot is the paper's own protocol: "measured last of three
// consecutive runs" with the caches hot.
func LastOfThreeHot(c Clock) Protocol {
	return Protocol{Clock: c, State: Hot, Warmup: 0, Runs: 3, Pick: PickLast}
}

// ColdSingle measures one cold run (flush before it).
func ColdSingle(c Clock) Protocol {
	return Protocol{Clock: c, State: Cold, Runs: 1, Pick: PickLast}
}

// Result is a completed measurement series.
type Result struct {
	Protocol Protocol
	Samples  []Sample // every measured run, in order
	Chosen   Sample   // the representative per Protocol.Pick
	// Warnings lists methodological hazards detected during the series
	// (currently: runs too short for the clock's resolution).
	Warnings []string
}

// Run executes the protocol against the target.
//
// For Cold state, Reset(Cold) runs before every measured run, so every run
// pays the full cold cost. For Hot state, Reset(Hot) runs once, then the
// warm-up runs execute unmeasured, then the measured runs follow
// back-to-back — matching how the paper warms a DBMS by running the query
// before the measured run.
func (p Protocol) Run(t Target) (*Result, error) {
	if p.Clock == nil {
		return nil, fmt.Errorf("measure: protocol needs a clock")
	}
	if p.Runs < 1 {
		return nil, fmt.Errorf("measure: protocol needs at least 1 run, got %d", p.Runs)
	}
	res := &Result{Protocol: p}
	sw := NewStopwatch(p.Clock)

	if p.State == Hot {
		if err := t.Reset(Hot); err != nil {
			return nil, fmt.Errorf("measure: hot reset: %w", err)
		}
		for i := 0; i < p.Warmup; i++ {
			if err := t.Run(); err != nil {
				return nil, fmt.Errorf("measure: warm-up run %d: %w", i+1, err)
			}
		}
	}
	for i := 0; i < p.Runs; i++ {
		if p.State == Cold {
			if err := t.Reset(Cold); err != nil {
				return nil, fmt.Errorf("measure: cold reset before run %d: %w", i+1, err)
			}
		}
		sw.Restart()
		if err := t.Run(); err != nil {
			return nil, fmt.Errorf("measure: run %d: %w", i+1, err)
		}
		res.Samples = append(res.Samples, sw.Sample())
	}
	res.Chosen = pickSample(p.Pick, res.Samples)
	if p.CheckResolution {
		resolution := EstimateResolution(p.Clock, 1<<12)
		if resolution > 0 {
			for i, s := range res.Samples {
				if s.Real < ResolutionMargin*resolution {
					res.Warnings = append(res.Warnings, fmt.Sprintf(
						"run %d took %v but the clock's resolution is %v; runs should span >= %dx the resolution",
						i+1, s.Real, resolution, ResolutionMargin))
				}
			}
		}
	}
	return res, nil
}

func pickSample(p Pick, samples []Sample) Sample {
	switch p {
	case PickLast:
		return samples[len(samples)-1]
	case PickMin:
		best := samples[0]
		for _, s := range samples[1:] {
			if s.Real < best.Real {
				best = s
			}
		}
		return best
	case PickMedian:
		sorted := append([]Sample(nil), samples...)
		sort.Slice(sorted, func(i, j int) bool { return sorted[i].Real < sorted[j].Real })
		return sorted[len(sorted)/2]
	case PickMean:
		var sum Sample
		for _, s := range samples {
			sum = sum.Add(s)
		}
		n := time.Duration(len(samples))
		return Sample{Real: sum.Real / n, User: sum.User / n, IO: sum.IO / n}
	default:
		return samples[len(samples)-1]
	}
}
