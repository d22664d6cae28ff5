package sched

import (
	"context"
	"fmt"
	"runtime"
	"sync"
	"time"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// Options configure a Scheduler.
type Options struct {
	// Workers bounds the number of concurrently executing units.
	// Values < 1 default to GOMAXPROCS.
	Workers int
	// Retries is how many extra attempts a failed unit gets before its
	// error aborts the run.
	Retries int
	// Timeout is the per-attempt wall-clock budget; 0 means none.
	//
	// Abandonment contract: the harness RunFunc signature carries no
	// context, so a timed-out attempt's goroutine is abandoned, not
	// interrupted. The abandoned goroutine keeps running to completion
	// in the background and its result is discarded — it is never
	// journaled, never written into the ResultSet, and never counted in
	// Stats, so a late finisher cannot corrupt a run that already moved
	// on (or returned). The worker that launched it is released
	// immediately (the handoff channel is buffered), so abandoned
	// attempts cannot deadlock or shrink the pool. Runners should be
	// side-effect free on cancellation; a runner that blocks forever
	// leaks its goroutine until process exit.
	Timeout time.Duration
	// Controller, when set, switches the scheduler from the fixed
	// rows x Replicates budget to controller-driven adaptive
	// replication: work units are generated dynamically, one batch per
	// cell at a time, until the controller's stopping rule is satisfied.
	// See the Controller interface; internal/adaptive implements it.
	Controller Controller
	// Store, when set, persists every completed unit and warm-starts
	// from units already present. Any runstore.Store backend works: the
	// single-file JSONL journal, the sharded directory store
	// (internal/runstore/shardstore), or a future database backend. A
	// store that is also a runstore.BatchAppender is committed to in
	// batches, in completion order, by one goroutine per Execute; any
	// other store is appended to by the workers, record by record (see
	// the package's persist contract). The caller keeps ownership (and
	// must Close it).
	Store runstore.Store
	// JournalDir, when Store is nil, makes the scheduler open (and
	// close) a per-experiment store under JournalDir for each Execute
	// call: a plain journal at <JournalDir>/<experiment>.jsonl, or — with
	// Shards > 0 — this process's shard of a sharded directory store.
	JournalDir string
	// OpenStore, when set alongside JournalDir, replaces the default
	// per-experiment journal with another Store backend (e.g.
	// archivestore.OpenDir for block-indexed archives). The scheduler's
	// execution semantics — warm-start replay, per-unit journaling,
	// deterministic ResultSet assembly — are identical across backends;
	// only the file behind them changes. Incompatible with sharded
	// execution, whose shard files are journals by construction.
	OpenStore func(dir, experiment string) (runstore.Store, error)
	// Shards, when > 0, partitions the design's rows across Shards
	// cooperating scheduler processes by assignment hash
	// (runstore.ShardIndex): this scheduler executes only the rows owned
	// by shard Shard and skips the rest, so N workers given the same
	// experiment and the same Shards cover the design disjointly and
	// exhaustively. Sharded execution requires a store (completed work
	// would otherwise be unreachable by the merge step) and a fixed
	// replication budget (no Controller). Rows owned by other shards
	// appear in the ResultSet with only the replicates the store already
	// holds — usually none during a worker run; run the merged journal
	// through an unsharded scheduler for the complete artifact.
	Shards int
	// Shard is this process's shard index in [0, Shards).
	Shard int
	// Metrics is the registry the scheduler's instruments register in;
	// nil means the process-wide obs.Default(). Tests pass a private
	// registry to assert exact counts in isolation.
	Metrics *obs.Registry
}

// Stats counts what one Execute call did.
type Stats struct {
	// Units is the number of completed units. With a fixed budget it is
	// rows x replicates; under an adaptive Controller the work list is
	// not enumerable up front, so Units is Executed + Replayed.
	Units    int
	Executed int // units run live
	Replayed int // units restored from the journal without execution
	Retried  int // failed attempts that were retried
	Skipped  int // units owned by other shards of a sharded run
	// FixedBudget is what the run would have cost without a controller:
	// rows x Design.Replicates. Equal to Units on fixed-budget runs; the
	// budget report compares Units against it on adaptive ones.
	FixedBudget int
}

// Scheduler executes experiments concurrently. It is safe for use from
// multiple goroutines; LastStats reports the most recent Execute.
type Scheduler struct {
	opts      Options
	reg       *obs.Registry
	met       *schedMetrics // nil disables instrumentation (benchmark baseline)
	mu        sync.Mutex
	last      Stats
	lastCells []harness.CellStats
}

// New returns a Scheduler with the given options.
func New(opts Options) *Scheduler {
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	return &Scheduler{opts: opts, reg: reg, met: newSchedMetrics(reg)}
}

// MetricsSnapshot returns a point-in-time snapshot of the registry the
// scheduler's instruments live in (Options.Metrics or the process
// default).
func (s *Scheduler) MetricsSnapshot() obs.Snapshot { return s.reg.Snapshot() }

// LastStats returns the stats of the most recently completed Execute.
func (s *Scheduler) LastStats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.last
}

// CellStats implements harness.BudgetReporter: per-cell replicate spend
// of the most recent Execute. It is nil unless that run was driven by an
// adaptive Controller — a fixed-budget run spends uniformly, so there is
// no per-cell budget story to tell.
func (s *Scheduler) CellStats() []harness.CellStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.lastCells
}

// TakeCellStats returns CellStats and clears it, so a caller reporting
// after each of several driver invocations (the perfeval run loop)
// never re-attributes one experiment's budget to a driver that executed
// no harness experiment at all.
func (s *Scheduler) TakeCellStats() []harness.CellStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	cells := s.lastCells
	s.lastCells = nil
	return cells
}

// unit is one (design row, replicate) execution.
type unit struct {
	row, rep int
	a        design.Assignment
	hash     string
}

// Execute implements harness.Executor: it validates the experiment,
// replays journaled units, schedules the rest onto the worker pool, and
// assembles the ResultSet in design order — byte-identical to what the
// sequential executor produces for the same runner outputs, regardless
// of completion order.
//
// Cancellation: once ctx is done the scheduler stops feeding work,
// lets in-flight units finish, lands every finished unit in the store (a
// canceled run's journal is always valid and warm-startable), waits for
// every worker and the committer to exit, and returns the context error.
// Units already dispatched are never torn mid-append; units never
// dispatched are simply absent from the journal, exactly what a resume
// re-executes.
func (s *Scheduler) Execute(ctx context.Context, e *harness.Experiment) (*harness.ResultSet, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	sharded := s.opts.Shards > 0
	if sharded {
		switch {
		case s.opts.Shard < 0 || s.opts.Shard >= s.opts.Shards:
			return nil, fmt.Errorf("sched: shard %d out of range [0,%d)", s.opts.Shard, s.opts.Shards)
		case s.opts.Store == nil && s.opts.JournalDir == "":
			return nil, fmt.Errorf("sched: sharded execution requires a store (Options.Store or JournalDir); without one the merge step has nothing to collect")
		case s.opts.Controller != nil:
			return nil, fmt.Errorf("sched: sharded execution requires a fixed replication budget, not an adaptive Controller")
		case s.opts.OpenStore != nil:
			return nil, fmt.Errorf("sched: sharded execution uses journal shard files; it cannot combine with Options.OpenStore")
		}
	}
	store := s.opts.Store
	if store == nil && s.opts.JournalDir != "" {
		var err error
		switch {
		case sharded:
			store, err = shardstore.OpenShard(s.opts.JournalDir, e.Name, s.opts.Shard, s.opts.Shards)
		case s.opts.OpenStore != nil:
			store, err = s.opts.OpenStore(s.opts.JournalDir, e.Name)
		default:
			store, err = runstore.OpenDir(s.opts.JournalDir, e.Name)
		}
		if err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		defer store.Close()
	}

	if s.opts.Controller != nil {
		return s.executeDynamic(ctx, e, store, s.opts.Controller)
	}

	rows := e.Design.NumRuns()
	reps := e.Design.Replicates
	results := make([][]map[string]float64, rows)
	assignments := make([]design.Assignment, rows)
	owned := make([]bool, rows)
	var pending []unit
	var stats Stats
	stats.FixedBudget = rows * reps
	for r := 0; r < rows; r++ {
		a, err := e.Design.Assignment(r)
		if err != nil {
			return nil, err
		}
		assignments[r] = a
		hash := runstore.AssignmentHash(a)
		owned[r] = !sharded || runstore.ShardIndex(hash, s.opts.Shards) == s.opts.Shard
		results[r] = make([]map[string]float64, reps)
		for rep := 0; rep < reps; rep++ {
			if store != nil {
				if rec, ok := store.Lookup(e.Name, hash, rep); ok {
					// Replay only if the journaled record satisfies the
					// experiment's current response contract; otherwise
					// fall through and re-execute (e.g. a new response
					// was added since the journal was written).
					if harness.CheckResponses(e, rec.Responses) == nil {
						results[r][rep] = rec.Responses
						stats.Replayed++
						continue
					}
				}
			}
			if !owned[r] {
				stats.Skipped++
				continue
			}
			pending = append(pending, unit{row: r, rep: rep, a: a, hash: hash})
		}
	}
	stats.Units = rows*reps - stats.Skipped
	if m := s.met; m != nil {
		m.replayed.Add(int64(stats.Replayed))
		m.skipped.Add(int64(stats.Skipped))
	}

	if err := s.runPool(ctx, e, store, pending, results, &stats); err != nil {
		return nil, err
	}

	rs := &harness.ResultSet{Experiment: e}
	for r := 0; r < rows; r++ {
		rowReps := results[r]
		if !owned[r] {
			// An unowned row carries only what the store already held:
			// its contiguous replicate prefix. Trim the unexecuted tail
			// so the ResultSet never holds nil replicates.
			n := 0
			for n < len(rowReps) && rowReps[n] != nil {
				n++
			}
			rowReps = rowReps[:n]
		}
		rs.Rows = append(rs.Rows, harness.ResultRow{Assignment: assignments[r], Reps: rowReps})
	}
	s.mu.Lock()
	s.last = stats
	s.lastCells = nil
	s.mu.Unlock()
	return rs, nil
}

// runPool drives the pending units through the worker pool and the
// persist stage. Every unit owns a distinct (row, rep) slot of results,
// filled once its append has returned, so no lock is needed on the
// result matrix; stats counters are mutex-guarded. A done context stops
// the feed; workers finish their in-flight unit and exit, the persist
// stage lands everything they queued, and the context error is returned.
func (s *Scheduler) runPool(ctx context.Context, e *harness.Experiment, store runstore.Store, pending []unit, results [][]map[string]float64, stats *Stats) error {
	if len(pending) == 0 {
		return nil
	}
	workers := s.opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(pending) {
		workers = len(pending)
	}

	jobs := make(chan unit)
	quit := make(chan struct{})
	var once sync.Once
	var firstErr error
	fail := func(err error) {
		once.Do(func() {
			firstErr = err
			close(quit)
		})
	}
	var statsMu sync.Mutex
	persist := s.newPersistStage(e.Name, store, func(o outcome) {
		if o.err != nil {
			fail(o.err)
			return
		}
		results[o.u.row][o.u.rep] = o.resp
		if m := s.met; m != nil {
			m.executed.Inc()
		}
		statsMu.Lock()
		stats.Executed++
		statsMu.Unlock()
	})
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for u := range jobs {
				select {
				case <-quit:
					return
				case <-ctx.Done():
					return
				default:
				}
				o := s.runUnit(ctx, e, u)
				statsMu.Lock()
				stats.Retried += o.retried
				statsMu.Unlock()
				if o.err != nil {
					if ctx.Err() != nil {
						return // cancellation, not a unit failure
					}
					fail(o.err)
					return
				}
				persist.persist(o)
			}
		}()
	}
	if m := s.met; m != nil {
		m.queueDepth.Add(int64(len(pending)))
	}
	fed := 0
feed:
	for _, u := range pending {
		select {
		case jobs <- u:
			fed++
			if m := s.met; m != nil {
				m.queueDepth.Add(-1)
			}
		case <-quit:
			break feed
		case <-ctx.Done():
			break feed
		}
	}
	if m := s.met; m != nil {
		// An aborted feed leaves undispatched units; zero them out so the
		// gauge never reports a queue that no longer exists.
		m.queueDepth.Add(-int64(len(pending) - fed))
	}
	close(jobs)
	wg.Wait()
	persist.close()
	if firstErr != nil {
		return firstErr
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sched: %s interrupted: %w (journal holds every completed unit; re-run to resume)", e.Name, err)
	}
	return nil
}

// runUnit is a worker's whole job for one unit: run it with the retry
// budget and time it. What comes back goes to the persist stage if err
// is nil.
func (s *Scheduler) runUnit(ctx context.Context, e *harness.Experiment, u unit) outcome {
	o := outcome{u: u}
	m := s.met
	var start time.Time
	if m != nil {
		start = time.Now()
	}
	o.resp, o.retried, o.err = s.runWithRetry(ctx, e, u)
	if m != nil {
		o.finished = time.Now()
		m.unitSeconds.Observe(o.finished.Sub(start).Seconds())
		if o.retried > 0 {
			m.retried.Add(int64(o.retried))
		}
	}
	return o
}

// runWithRetry executes one unit with the configured retry budget,
// returning the responses and how many failed attempts were retried. A
// done context stops the retry loop — a canceled run must not burn its
// retry budget re-attempting units nobody will wait for.
func (s *Scheduler) runWithRetry(ctx context.Context, e *harness.Experiment, u unit) (map[string]float64, int, error) {
	attempts := 1 + s.opts.Retries
	if attempts < 1 {
		attempts = 1
	}
	var lastErr error
	retried := 0
	for i := 0; i < attempts; i++ {
		if i > 0 {
			if ctx.Err() != nil {
				break
			}
			retried++
		}
		resp, err := s.attempt(ctx, e, u)
		if err == nil {
			return resp, retried, nil
		}
		lastErr = err
	}
	if s.opts.Retries > 0 {
		lastErr = fmt.Errorf("sched: after %d attempts: %w", attempts, lastErr)
	}
	return nil, retried, lastErr
}

// attempt runs one unit, enforcing the per-attempt timeout if set.
// With a timeout armed, context cancellation abandons the attempt the
// same way a timeout does (see the Options.Timeout contract): the
// runner goroutine finishes in the background and its result is
// discarded. Without a timeout the attempt runs to completion — the
// harness RunFunc carries no context, so there is nothing to interrupt;
// cancellation then takes effect at the next unit boundary.
func (s *Scheduler) attempt(ctx context.Context, e *harness.Experiment, u unit) (map[string]float64, error) {
	if s.opts.Timeout <= 0 {
		return harness.RunUnit(e, u.a, u.row, u.rep)
	}
	type outcome struct {
		resp map[string]float64
		err  error
	}
	ch := make(chan outcome, 1)
	go func() {
		resp, err := harness.RunUnit(e, u.a, u.row, u.rep)
		ch <- outcome{resp, err}
	}()
	timer := time.NewTimer(s.opts.Timeout)
	defer timer.Stop()
	select {
	case out := <-ch:
		return out.resp, out.err
	case <-ctx.Done():
		return nil, fmt.Errorf("sched: %s run %d replicate %d abandoned: %w",
			e.Name, u.row+1, u.rep+1, ctx.Err())
	case <-timer.C:
		if m := s.met; m != nil {
			m.timedout.Inc()
		}
		return nil, fmt.Errorf("sched: %s run %d replicate %d timed out after %v",
			e.Name, u.row+1, u.rep+1, s.opts.Timeout)
	}
}
