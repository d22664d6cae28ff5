package repro

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/paperexp"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
	"repro/internal/warehouse"
)

// StoreKind selects the per-experiment store backend a journaled run
// writes through.
type StoreKind string

// The store backends a RunConfig can name. The zero value means
// StoreJournal.
const (
	// StoreJournal is the append-only JSONL journal — the reference
	// backend.
	StoreJournal StoreKind = "journal"
	// StoreArchive is the block-indexed single-file archive: identical
	// warm-start and durability semantics, O(index) reopen.
	StoreArchive StoreKind = "archive"
)

// AdaptiveConfig switches a run from the fixed rows x replicates budget
// to CI-targeted adaptive replication (internal/adaptive): a cell stops
// replicating once its confidence interval's relative half-width is at
// most Rel, after at least Min and at most Max replicates.
type AdaptiveConfig struct {
	// Rel is the target relative CI half-width; 0 means the adaptive
	// package default.
	Rel float64
	// Min and Max bound the per-cell replicate budget; 0 means the
	// adaptive package defaults.
	Min, Max int
	// Baseline, when set, names a baseline store file (journal or
	// archive): cells whose running interval has already shifted against
	// it get a tighter (Rel/2) target and are scheduled first.
	Baseline string

	// baselineOnce caches the loaded baseline summaries on this value,
	// so the CLI's run-all loop, which reuses one config, reads and
	// aggregates the baseline file once, not once per experiment. Share
	// one *AdaptiveConfig across runs to benefit.
	baselineOnce sync.Once
	baselineSums []*runstore.Summary
	baselineErr  error
}

// RunConfig is the typed form of everything `perfeval run` exposes as
// -D flags. The zero value runs sequentially in-process — the executor
// of choice for measurement-sensitive runs; setting any field routes
// execution through the concurrent scheduler (internal/sched).
type RunConfig struct {
	// Workers bounds concurrently executing units; 0 resolves to
	// GOMAXPROCS when the scheduler is engaged. Workers, Retries and
	// Timeout below 0 are errors.
	Workers int
	// Retries is how many extra attempts a failed unit gets.
	Retries int
	// Timeout is the per-attempt wall-clock budget; 0 means none.
	Timeout time.Duration
	// JournalDir, when set, persists every completed unit to a
	// per-experiment store under it and warm-starts from whatever the
	// store already holds.
	JournalDir string
	// Store selects the backend behind JournalDir; zero means
	// StoreJournal.
	Store StoreKind
	// Shards, when > 0, partitions each experiment's design rows across
	// Shards cooperating processes; this process executes shard Shard.
	// Requires JournalDir and a fixed budget (no Adaptive). Negative is
	// an error.
	Shards int
	// Shard is this process's shard index in [0, Shards); any other
	// value, a non-zero Shard without Shards included, is an error. Note
	// the zero-value hazard inherent to a config struct: a worker whose
	// generated config forgot to set Shard silently runs shard 0 and
	// exits clean. Scripts fanning out workers must set Shard explicitly
	// per worker and should cross-check coverage with a merged-journal
	// Inspect (the perfeval CLI refuses Shards > 1 without an explicit
	// -Dsched.shard for exactly this reason).
	Shard int
	// Adaptive, when non-nil, replaces the fixed replication budget with
	// CI-targeted sequential analysis.
	Adaptive *AdaptiveConfig
}

// concurrent reports whether any field routes execution through the
// scheduler.
func (cfg RunConfig) concurrent() bool {
	return cfg.Workers != 0 || cfg.Retries != 0 || cfg.Timeout != 0 ||
		cfg.JournalDir != "" || cfg.Store != "" || cfg.Shards != 0 || cfg.Adaptive != nil
}

// build assembles the executor the config describes: (nil, nil, nil)
// for the sequential default, otherwise a configured scheduler.
func (cfg RunConfig) build() (harness.Executor, *sched.Scheduler, error) {
	if err := checkScheduler(cfg.Workers, cfg.Retries, cfg.Timeout); err != nil {
		return nil, nil, err
	}
	if cfg.Shards < 0 {
		return nil, nil, fmt.Errorf("repro: Shards = %d, need >= 0", cfg.Shards)
	}
	if cfg.Shard != 0 && (cfg.Shard < 0 || cfg.Shard >= cfg.Shards) {
		return nil, nil, fmt.Errorf("repro: Shard = %d, need 0 <= Shard < Shards = %d", cfg.Shard, cfg.Shards)
	}
	if !cfg.concurrent() {
		return nil, nil, nil
	}
	opts := sched.Options{
		Workers: cfg.Workers,
		Retries: cfg.Retries,
		Timeout: cfg.Timeout,
		Shards:  cfg.Shards,
		Shard:   cfg.Shard,
		Metrics: obs.NewRegistry(),
	}
	switch cfg.Store {
	case "", StoreJournal, StoreArchive:
	default:
		return nil, nil, fmt.Errorf("repro: unknown store backend %q (want %q or %q)", cfg.Store, StoreJournal, StoreArchive)
	}
	if cfg.Store != "" && cfg.JournalDir == "" {
		return nil, nil, fmt.Errorf("repro: Store %q requires JournalDir (the directory the per-experiment store files live in)", cfg.Store)
	}
	if cfg.Shards > 0 && cfg.JournalDir == "" {
		return nil, nil, fmt.Errorf("repro: sharded execution requires JournalDir (shard files are the run's only output)")
	}
	if cfg.Store == StoreArchive && cfg.Shards > 0 {
		return nil, nil, fmt.Errorf("repro: Store %q cannot combine with sharded execution: shard files are journals; archive the merged result instead", cfg.Store)
	}
	// The one place a directory, a backend and a shard become a file: each
	// Execute opens <JournalDir>/<experiment>.jsonl, .arch, or this
	// process's .shard-KKK-of-NNN.jsonl, and closes it when it returns.
	if dir := cfg.JournalDir; dir != "" {
		switch {
		case cfg.Shards > 0:
			opts.Open = func(experiment string) (runstore.Store, error) {
				return runstore.Open(shardstore.Path(dir, experiment, cfg.Shard, cfg.Shards))
			}
		case cfg.Store == StoreArchive:
			opts.Open = func(experiment string) (runstore.Store, error) {
				return archivestore.OpenDir(dir, experiment)
			}
		default:
			opts.Open = func(experiment string) (runstore.Store, error) {
				return runstore.OpenDir(dir, experiment)
			}
		}
	}
	if cfg.Adaptive != nil {
		if cfg.Shards > 0 {
			return nil, nil, fmt.Errorf("repro: sharded execution requires a fixed replication budget, not adaptive replication")
		}
		ctrl, err := cfg.Adaptive.controller()
		if err != nil {
			return nil, nil, err
		}
		opts.Controller = ctrl
	}
	s := sched.New(opts)
	return s, s, nil
}

// checkScheduler refuses the scheduler fields RunConfig and WorkConfig
// share when they are out of range — a negative worker count, retry count
// or per-attempt timeout — rather than running them as their defaults.
func checkScheduler(workers, retries int, timeout time.Duration) error {
	switch {
	case workers < 0:
		return fmt.Errorf("repro: Workers = %d, need >= 0", workers)
	case retries < 0:
		return fmt.Errorf("repro: Retries = %d, need >= 0", retries)
	case timeout < 0:
		return fmt.Errorf("repro: Timeout = %v, need >= 0", timeout)
	}
	return nil
}

// controller builds the adaptive controller, arming baseline-drift
// prioritization when a baseline store is named. The baseline file is
// loaded and summarized once per AdaptiveConfig value, however many
// runs share it.
func (a *AdaptiveConfig) controller() (*adaptive.Controller, error) {
	ctrl, err := adaptive.New(adaptive.Options{Rel: a.Rel, Min: a.Min, Max: a.Max})
	if err != nil {
		return nil, err
	}
	if a.Baseline != "" {
		a.baselineOnce.Do(func() {
			sums, err := warehouse.Summarize(a.Baseline)
			if err != nil {
				a.baselineErr = fmt.Errorf("adaptive baseline: %w", err)
				return
			}
			a.baselineSums = sums
		})
		if a.baselineErr != nil {
			return nil, a.baselineErr
		}
		for _, s := range a.baselineSums {
			if err := ctrl.AddBaseline(s); err != nil {
				return nil, fmt.Errorf("adaptive baseline: %w", err)
			}
		}
	}
	return ctrl, nil
}

// Describe renders the one-line banner for the execution the config
// describes — worker count, store, sharding, adaptive targets — or ""
// for the sequential default. The perfeval CLI prints it before a
// scheduled run.
func (cfg RunConfig) Describe() string {
	if !cfg.concurrent() {
		return ""
	}
	workers := cfg.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	var b strings.Builder
	fmt.Fprintf(&b, "scheduler: %d workers", workers)
	if cfg.JournalDir != "" {
		switch cfg.Store {
		case StoreArchive:
			fmt.Fprintf(&b, ", archive store %s", cfg.JournalDir)
		default:
			fmt.Fprintf(&b, ", journal %s", cfg.JournalDir)
		}
	}
	if cfg.Shards > 0 {
		fmt.Fprintf(&b, ", shard %d of %d", cfg.Shard, cfg.Shards)
	}
	if a := cfg.Adaptive; a != nil {
		rel, min, max := a.Rel, a.Min, a.Max
		if rel == 0 {
			rel = adaptive.DefaultRel
		}
		if min == 0 {
			min = adaptive.DefaultMin
		}
		if max == 0 {
			max = adaptive.DefaultMax
		}
		fmt.Fprintf(&b, ", adaptive rel=%g min=%d max=%d", rel, min, max)
		if a.Baseline != "" {
			fmt.Fprintf(&b, " prioritize=%s", a.Baseline)
		}
	}
	return b.String()
}

// CellBudget is one design cell's replicate spend in an adaptive run.
type CellBudget struct {
	Run        int    // 1-based design row
	Assignment string // the cell's factor-level assignment
	Spent      int    // replicates charged (live + replayed)
	Fixed      int    // what the fixed budget would have spent
	Note       string // the controller's stop reason
}

// Budget itemizes what an adaptive run spent against the fixed
// rows x replicates budget it replaced. It is nil on fixed-budget runs —
// those spend uniformly, so there is no per-cell story to tell.
type Budget struct {
	Units       int // replicates spent (live + replayed)
	Executed    int // live runs
	Replayed    int // journal restores
	FixedBudget int // rows x replicates equivalent
	Cells       []CellBudget
}

// Saved returns the fraction of the fixed budget the adaptive run did
// not spend, in [0, 1]; 0 when there was no fixed budget to compare.
func (b *Budget) Saved() float64 {
	if b.FixedBudget <= 0 {
		return 0
	}
	return 1 - float64(b.Units)/float64(b.FixedBudget)
}

// String renders the budget report the perfeval CLI prints after each
// adaptive experiment.
func (b *Budget) String() string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "adaptive budget report: %d replicates spent (%d live, %d replayed) vs fixed budget %d",
		b.Units, b.Executed, b.Replayed, b.FixedBudget)
	if b.FixedBudget > 0 {
		fmt.Fprintf(&sb, " (%.1f%% saved)", b.Saved()*100)
	}
	tab := NewTable().Header("run", "assignment", "reps", "fixed", "note")
	for _, c := range b.Cells {
		tab.Row(fmt.Sprintf("%d", c.Run), c.Assignment,
			fmt.Sprintf("%d", c.Spent), fmt.Sprintf("%d", c.Fixed), c.Note)
	}
	fmt.Fprintf(&sb, "\n%s", tab.String())
	return sb.String()
}

// Outcome is one experiment artifact regenerated by Run, together with
// the execution accounting the run produced.
type Outcome struct {
	// Result is the regenerated artifact.
	Result *Result
	// Budget itemizes per-cell replicate spend; nil unless the run was
	// driven by adaptive replication.
	Budget *Budget
	// Metrics snapshots this run's own scheduler registry after the run,
	// so its sched_* series count this call alone; nil on the sequential
	// path, which schedules nothing and so has nothing to measure.
	Metrics *Metrics
}

// Run regenerates the artifact with the given id (t1..t10, f1..f7,
// case-insensitive) under ctx through the execution cfg describes. The
// zero RunConfig runs sequentially; any configured field routes the run
// through the concurrent scheduler, bound to ctx via the context-scoped
// executor (harness.WithExecutor) — concurrent Run calls with different
// configs do not interfere.
//
// Cancel ctx to interrupt: the scheduler stops feeding work, drains
// in-flight units (each journaled as it completes), and Run returns the
// context error with the store valid and warm-startable — re-running
// the same config resumes where the interrupted run stopped.
func Run(ctx context.Context, id string, cfg RunConfig) (*Outcome, error) {
	ex, s, err := cfg.build()
	if err != nil {
		return nil, err
	}
	if ex != nil {
		ctx = harness.WithExecutor(ctx, ex)
	}
	r, err := paperexp.Run(ctx, id)
	if err != nil {
		return nil, err
	}
	o := &Outcome{Result: r, Budget: takeBudget(s)}
	if s != nil {
		m := s.MetricsSnapshot()
		o.Metrics = &m
	}
	return o, nil
}

// takeBudget drains the scheduler's per-cell stats into a Budget,
// consuming them so a driver that executed no harness experiment cannot
// re-report its predecessor's spend.
func takeBudget(s *sched.Scheduler) *Budget {
	if s == nil {
		return nil
	}
	cells := s.TakeCellStats()
	if len(cells) == 0 {
		return nil
	}
	st := s.LastStats()
	b := &Budget{
		Units:       st.Units,
		Executed:    st.Executed,
		Replayed:    st.Replayed,
		FixedBudget: st.FixedBudget,
	}
	fixedPerCell := 0
	if len(cells) > 0 {
		fixedPerCell = st.FixedBudget / len(cells)
	}
	for _, c := range cells {
		b.Cells = append(b.Cells, CellBudget{
			Run:        c.Row + 1,
			Assignment: c.Assignment.String(),
			Spent:      c.Spent(),
			Fixed:      fixedPerCell,
			Note:       c.Note,
		})
	}
	return b
}
