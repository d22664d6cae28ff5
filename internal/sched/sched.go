package sched

import (
	"context"
	"fmt"
	"runtime"
	"slices"
	"sync"
	"time"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
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
	// Controller, when set, decides cell by cell how much replication is
	// enough: the pool asks it for each cell's next batch until its
	// stopping rule is satisfied, shows it every landed replicate, and
	// schedules the cells it flags first. Nil is the fixed budget — every
	// cell gets Design.Replicates, asked for in one batch — run by the
	// same pool under the same rules (see the package comment, which also
	// states the cell-key and determinism contracts the pool keeps with
	// it).
	Controller *adaptive.Controller
	// Store, when set, persists every completed unit and satisfies from
	// records already present every unit the budget asks for — a unit
	// runs only when the store holds no valid record of it, wherever in
	// the cell the gap is. Any runstore.Store backend works: the
	// single-file JSONL journal (in a sharded run, this shard's file), the
	// archive (internal/runstore/archivestore) or the collector worker's
	// remote store. A store that is also a runstore.BatchAppender is committed to
	// in batches, in completion order, by one goroutine per Execute; any
	// other store is appended to by the workers, record by record (see
	// the package's persist contract). The caller keeps ownership (and
	// must Close it).
	Store runstore.Store
	// Open, when set, opens the store of one Execute: it is called once
	// per Execute, with the experiment's name, before any unit runs, and
	// the store it returns is closed when Execute returns — so one
	// Scheduler can run several experiments, each against its own file.
	// The repro package's RunConfig maps a journal directory, a backend
	// and a shard to it. Setting both Store and Open is an error.
	Open func(experiment string) (runstore.Store, error)
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
	// Units is the number of completed units: Executed + Replayed.
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

// TakeCellStats returns the per-cell replicate spend of the most recent
// Execute and clears it, so a caller reporting after each of several
// driver invocations (the perfeval run loop) never re-attributes one
// experiment's budget to a driver that executed no harness experiment
// at all. It is nil unless that run was driven by a Controller — a
// fixed-budget run spends uniformly, so there is no per-cell budget
// story to tell.
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

// cellState tracks one design cell through an execution.
type cellState struct {
	unit                           // row, a, hash of the cell (rep field unused)
	key       string               // the Controller's name for the cell; empty without one
	owned     bool                 // false: another shard's cell, replayed but never scheduled
	reps      []map[string]float64 // indexed by replicate, grown batch by batch
	scheduled int                  // replicates the budget has asked for
	completed int                  // of those, landed: replayed, or run and appended
	replayed  int                  // store restores among completed
}

// execution is the state of one Execute call. Only the goroutine that
// called Execute touches it — it is the pool's dispatcher, and every
// budget decision, replay and result slot goes through it — so none of
// it is locked.
type execution struct {
	s     *Scheduler
	e     *harness.Experiment
	store runstore.Store // nil: nothing to replay, nothing to persist
	// ctrl is Options.Controller. Nil is the fixed budget — the
	// degenerate policy "Design.Replicates, asked once, no priority,
	// nothing to observe" — and is checked for rather than stood in for by
	// a do-nothing controller, so a fixed run pays nothing per unit for
	// policy it does not have.
	ctrl  *adaptive.Controller
	cells []cellState
	stats Stats
}

// Execute implements harness.Executor: it validates the experiment,
// replays stored units, runs the rest on the worker pool, and assembles
// the ResultSet in design order — byte-identical to what the sequential
// executor produces for the same runner outputs, regardless of
// completion order. The package comment states the rules (replay, shards,
// stats, cancellation, join) every run follows, with or without a
// Controller.
func (s *Scheduler) Execute(ctx context.Context, e *harness.Experiment) (*harness.ResultSet, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	if s.opts.Store != nil && s.opts.Open != nil {
		return nil, fmt.Errorf("sched: Options.Store and Options.Open are both set; give one store or one way to open it")
	}
	sharded := s.opts.Shards > 0
	if sharded {
		switch {
		case s.opts.Shard < 0 || s.opts.Shard >= s.opts.Shards:
			return nil, fmt.Errorf("sched: shard %d out of range [0,%d)", s.opts.Shard, s.opts.Shards)
		case s.opts.Store == nil && s.opts.Open == nil:
			return nil, fmt.Errorf("sched: sharded execution requires a store (Options.Store or Options.Open); without one the merge step has nothing to collect")
		case s.opts.Controller != nil:
			return nil, fmt.Errorf("sched: sharded execution requires a fixed replication budget, not an adaptive Controller")
		}
	}
	store := s.opts.Store
	if s.opts.Open != nil {
		var err error
		if store, err = s.opts.Open(e.Name); err != nil {
			return nil, fmt.Errorf("sched: %w", err)
		}
		defer store.Close()
	}

	rows := e.Design.NumRuns()
	x := &execution{s: s, e: e, store: store, ctrl: s.opts.Controller, cells: make([]cellState, rows)}
	x.stats.FixedBudget = rows * e.Design.Replicates
	var queue []unit
	for r := range x.cells {
		a, err := e.Design.Assignment(r)
		if err != nil {
			return nil, err
		}
		c := &x.cells[r]
		c.unit = unit{row: r, a: a, hash: runstore.AssignmentHash(a)}
		c.owned = !sharded || runstore.ShardIndex(c.hash, s.opts.Shards) == s.opts.Shard
		if x.ctrl != nil {
			c.key = runstore.CellKey(e.Name, c.hash)
		}
		queue = x.grow(c, queue)
	}
	if x.ctrl != nil {
		// Priority cells ahead of the rest, both groups in row order — asked
		// once every cell has had its first Target call, which is where a
		// controller notices that a warm-started cell already shifted
		// against its baseline and flags it.
		rank := make([]int, rows)
		for r := range x.cells {
			if !x.ctrl.Priority(x.cells[r].key) {
				rank[r] = 1
			}
		}
		slices.SortStableFunc(queue, func(a, b unit) int { return rank[a.row] - rank[b.row] })
	}
	if err := x.dispatch(ctx, queue); err != nil {
		return nil, err
	}

	rs := &harness.ResultSet{Experiment: e, Rows: make([]harness.ResultRow, 0, rows)}
	var cellStats []harness.CellStats
	for r := range x.cells {
		c := &x.cells[r]
		// A row is the contiguous prefix the cell holds: all of it for a
		// cell this process ran, what the store had for another shard's.
		n := 0
		for n < len(c.reps) && c.reps[n] != nil {
			n++
		}
		rs.Rows = append(rs.Rows, harness.ResultRow{Assignment: c.a, Reps: c.reps[:n]})
		if x.ctrl != nil {
			cellStats = append(cellStats, harness.CellStats{
				Row:        c.row,
				Assignment: c.a,
				Executed:   c.completed - c.replayed,
				Replayed:   c.replayed,
				Note:       x.ctrl.Explain(c.key),
			})
		}
	}
	x.stats.Units = x.stats.Executed + x.stats.Replayed
	s.mu.Lock()
	s.last = x.stats
	s.lastCells = cellStats
	s.mu.Unlock()
	return rs, nil
}

// grow asks the budget how far the cell should go and appends to queue
// the units of its next batch that have to run — none when the cell is
// finished. A replicate the store holds a valid record for is landed
// here instead of scheduled, so one call may pass several batch
// boundaries; a replicate of another shard's cell is counted skipped.
func (x *execution) grow(c *cellState, queue []unit) []unit {
	m := x.s.met
	for {
		target := x.e.Design.Replicates
		if x.ctrl != nil {
			// At least 1: a cell with no measurement can claim nothing.
			target = max(1, x.ctrl.Target(c.key, c.completed))
			if m != nil {
				if target > c.completed {
					m.adaptGrow.Inc()
				} else {
					m.adaptStop.Inc()
				}
			}
		}
		if target <= c.completed {
			return queue
		}
		c.reps = slices.Grow(c.reps, target-c.scheduled)
		for rep := c.scheduled; rep < target; rep++ {
			resp := x.stored(c, rep)
			c.reps = append(c.reps, resp)
			switch {
			case resp != nil:
				x.stats.Replayed++
				c.replayed++
				x.landed(c, rep, resp)
				if m != nil {
					m.replayed.Inc()
				}
			case c.owned:
				queue = append(queue, unit{row: c.row, rep: rep, a: c.a, hash: c.hash})
			default:
				x.stats.Skipped++
				if m != nil {
					m.skipped.Inc()
				}
			}
		}
		c.scheduled = target
		if c.completed < c.scheduled {
			return queue
		}
	}
}

// stored returns the responses the store holds for one replicate, or nil
// when it holds none that satisfy the experiment's current response
// contract — a record written before a response was added re-executes.
func (x *execution) stored(c *cellState, rep int) map[string]float64 {
	if x.store == nil {
		return nil
	}
	rec, ok := x.store.Lookup(x.e.Name, c.hash, rep)
	if !ok || harness.CheckResponses(x.e, rec.Responses) != nil {
		return nil
	}
	return rec.Responses
}

// landed counts one replicate of the cell complete — replayed, or run
// and appended — and shows it to the controller, restricted to the
// declared responses so no decision can hinge on a debug output a runner
// happens to emit.
func (x *execution) landed(c *cellState, rep int, resp map[string]float64) {
	c.completed++
	if x.ctrl == nil {
		return
	}
	declared := make(map[string]float64, len(x.e.Responses))
	for _, name := range x.e.Responses {
		declared[name] = resp[name]
	}
	x.ctrl.Observe(c.key, rep, declared)
}

// dispatch drives the queue through the worker pool and the persist
// stage. This goroutine is the dispatcher: it owns the queue, the cells
// and every budget call; workers only run units and hand them to the
// persist stage, and the stage sends each one back here once its append
// has returned. A done context or a failed unit stops the run at the
// next dispatch boundary: the queue is dropped, units no worker has
// started are taken back, units in flight drain (stored as they
// complete), and the error is returned — the store stays valid and
// warm-startable, holding exactly the completed units.
func (x *execution) dispatch(ctx context.Context, queue []unit) error {
	if len(queue) == 0 {
		return nil
	}
	// Not clamped to the queue: it grows as the budget extends cells, and
	// surplus workers only idle on the channel.
	workers := x.s.opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Both channels are buffered so that a worker hands back one unit and
	// takes the next without waiting for the dispatcher to get a processor
	// — unbuffered, microsecond units ran on one core, +49 % on
	// BenchmarkSchedUninstrumented. jobs holds two units per worker
	// because the dispatcher queues behind the workers themselves (one
	// per worker still measured +26 %, more than two nothing further).
	//
	// Every dispatched unit comes back on done exactly once — from its
	// worker if the runner failed, from the persist stage otherwise — so
	// when the loop below has counted them all back no worker can still
	// be persisting and the stage may close.
	jobs := make(chan unit, 2*workers)
	done := make(chan outcome, workers)
	persist := x.s.newPersistStage(x.e.Name, x.store, len(queue), func(o outcome) { done <- o })
	defer persist.close()
	for w := 0; w < workers; w++ {
		go func() {
			for u := range jobs {
				if o := x.s.runUnit(ctx, x.e, u); o.err != nil {
					done <- o
				} else {
					persist.persist(o)
				}
			}
		}()
	}
	defer close(jobs)

	m := x.s.met
	if m != nil {
		defer m.queueDepth.Set(0)
	}
	var failed error
	inflight := 0 // dispatched and not yet back
	ctxDone := ctx.Done()
	for {
		if failed != nil || ctx.Err() != nil {
			// Halt: generate no more work, take back what no worker has
			// started, and drain the rest — with ctxDone disarmed, so the
			// drain blocks on completions instead of spinning on a closed
			// channel.
			queue, ctxDone = nil, nil
			for recalled := true; recalled; {
				select {
				case <-jobs:
					inflight--
				default:
					recalled = false
				}
			}
		}
		if inflight == 0 && len(queue) == 0 {
			break
		}
		if m != nil {
			m.queueDepth.Set(int64(len(queue) + len(jobs)))
		}
		var feed chan unit
		var next unit
		if len(queue) > 0 {
			feed, next = jobs, queue[0]
		}
		select {
		case <-ctxDone:
		case feed <- next:
			queue = queue[1:]
			inflight++
		case out := <-done:
			inflight--
			x.stats.Retried += out.retried
			if out.err != nil {
				// An attempt abandoned by cancellation is not a unit
				// failure; the interruption is what gets reported.
				if failed == nil && ctx.Err() == nil {
					failed = out.err
				}
				continue
			}
			c := &x.cells[out.u.row]
			c.reps[out.u.rep] = out.resp
			x.stats.Executed++
			if m != nil {
				m.executed.Inc()
			}
			x.landed(c, out.u.rep, out.resp)
			if c.completed < c.scheduled {
				continue
			}
			// Batch boundary: every replicate asked of the cell has
			// landed — ask the budget for the next batch.
			if grown := x.grow(c, nil); x.ctrl != nil && x.ctrl.Priority(c.key) {
				queue = append(grown, queue...)
			} else {
				queue = append(queue, grown...)
			}
		}
	}
	if failed != nil {
		return failed
	}
	if err := ctx.Err(); err != nil {
		return fmt.Errorf("sched: %s interrupted: %w (journal holds every completed unit; re-run to resume)", x.e.Name, err)
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
