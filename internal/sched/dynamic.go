package sched

import (
	"context"
	"fmt"
	"runtime"

	"repro/internal/harness"
	"repro/internal/runstore"
)

// Controller decides, per design cell, how much replication is enough —
// the sequential-analysis hook that turns the scheduler from a fixed
// rows x replicates work list into a dynamic work generator. The
// scheduler owns the mechanics (workers, retries, journaling, result
// assembly); the controller owns the policy (stopping rule, budget
// envelope, priorities). internal/adaptive provides the CI-targeted
// implementation.
//
// Cells are identified by the opaque key runstore.CellKey(experiment,
// hash), so one controller can serve several experiments without state
// bleeding across them.
//
// Determinism contract: the scheduler only calls Target at batch
// boundaries — when every replicate it has scheduled for the cell has
// been observed — and replicates of one cell always form the contiguous
// prefix 0..n-1. A controller whose decisions depend only on the
// observed values of the cell under decision therefore yields the same
// replicate count per cell regardless of worker count or completion
// order. Implementations must be safe for concurrent use: warm-start
// replay observes cells from one goroutine, but a controller may be
// shared by schedulers running in parallel.
type Controller interface {
	// Observe ingests one completed replicate of a cell — live or
	// journal-replayed — restricted to the experiment's declared
	// responses.
	Observe(cell string, replicate int, responses map[string]float64)
	// Target returns the total number of replicates the cell should
	// reach, given that observed have completed. A value <= observed
	// stops the cell; a larger value schedules the difference as the
	// next batch. The first call (observed may be 0 on a cold start)
	// must return at least 1 — every cell needs one measurement to say
	// anything at all.
	Target(cell string, observed int) int
	// Priority reports whether the cell should be scheduled ahead of
	// non-priority cells (e.g. a cell the regression gate flagged).
	Priority(cell string) bool
	// Explain renders a short human-readable account of the cell's
	// state — achieved precision, applied target, stop reason — for
	// budget reports.
	Explain(cell string) string
}

// cellState tracks one design cell through a dynamic execution.
type cellState struct {
	unit      // row, a, hash of the cell (rep field unused)
	key       string
	reps      []map[string]float64 // indexed by replicate, grown batch by batch
	scheduled int                  // replicates handed to the pool (incl. replayed)
	completed int                  // replicates observed (incl. replayed)
	replayed  int                  // journal restores among completed
	done      bool                 // controller stopped the cell
}

// declaredResponses filters a response map down to the experiment's
// declared responses, so controller decisions cannot hinge on
// undeclared debug outputs a runner happens to emit.
func declaredResponses(e *harness.Experiment, resp map[string]float64) map[string]float64 {
	out := make(map[string]float64, len(e.Responses))
	for _, name := range e.Responses {
		out[name] = resp[name]
	}
	return out
}

// executeDynamic is Execute's controller-driven path. The fixed path
// enumerates every unit up front; here the controller grows each cell
// batch by batch until its stopping rule is met, while warm-started
// replicates replay from the journal and count against the budget.
// Retry, timeout, journaling, and design-ordered result assembly all
// behave exactly as on the fixed path.
func (s *Scheduler) executeDynamic(ctx context.Context, e *harness.Experiment, journal runstore.Store, ctrl Controller) (*harness.ResultSet, error) {
	rows := e.Design.NumRuns()
	cells := make([]*cellState, rows)
	var stats Stats
	stats.FixedBudget = rows * e.Design.Replicates
	for r := 0; r < rows; r++ {
		a, err := e.Design.Assignment(r)
		if err != nil {
			return nil, err
		}
		hash := runstore.AssignmentHash(a)
		c := &cellState{unit: unit{row: r, a: a, hash: hash}, key: runstore.CellKey(e.Name, hash)}
		if journal != nil {
			// Warm start: replay the contiguous replicate prefix that
			// still satisfies the response contract, feeding each
			// restored replicate to the controller so a resumed run
			// keeps the budget it already spent.
			n := journal.ReplicateCount(e.Name, hash)
			for rep := 0; rep < n; rep++ {
				rec, ok := journal.Lookup(e.Name, hash, rep)
				if !ok || harness.CheckResponses(e, rec.Responses) != nil {
					break
				}
				c.reps = append(c.reps, rec.Responses)
				ctrl.Observe(c.key, rep, declaredResponses(e, rec.Responses))
				stats.Replayed++
				c.replayed++
			}
			c.completed = len(c.reps)
			c.scheduled = len(c.reps)
		}
		cells[r] = c
	}

	// Initial targets for every cell first — Target is where a
	// controller notices that a warm-started cell already shifted
	// against its baseline and flags it — then feed priority cells
	// ahead of the rest, both groups in stable row order.
	if m := s.met; m != nil {
		m.replayed.Add(int64(stats.Replayed))
	}
	batches := make([][]unit, rows)
	for r, c := range cells {
		target := ctrl.Target(c.key, c.completed)
		if target <= c.completed && c.completed > 0 {
			c.done = true
			if m := s.met; m != nil {
				m.adaptStop.Inc()
			}
			continue
		}
		if m := s.met; m != nil {
			m.adaptGrow.Inc()
		}
		if target < 1 {
			target = 1 // a cell with no measurements can claim nothing
		}
		for rep := c.scheduled; rep < target; rep++ {
			batches[r] = append(batches[r], unit{row: c.row, rep: rep, a: c.a, hash: c.hash})
			c.reps = append(c.reps, nil)
		}
		c.scheduled = target
	}
	var queue []unit
	for pass := 0; pass < 2; pass++ {
		for r, c := range cells {
			if len(batches[r]) > 0 && ctrl.Priority(c.key) == (pass == 0) {
				queue = append(queue, batches[r]...)
			}
		}
	}

	if err := s.runDynamicPool(ctx, e, journal, ctrl, cells, queue, &stats); err != nil {
		return nil, err
	}

	rs := &harness.ResultSet{Experiment: e}
	cellStats := make([]harness.CellStats, 0, rows)
	for _, c := range cells {
		rs.Rows = append(rs.Rows, harness.ResultRow{Assignment: c.a, Reps: c.reps[:c.completed]})
		cellStats = append(cellStats, harness.CellStats{
			Row:        c.row,
			Assignment: c.a,
			Executed:   c.completed - c.replayed,
			Replayed:   c.replayed,
			Note:       ctrl.Explain(c.key),
		})
	}
	stats.Units = stats.Executed + stats.Replayed
	s.mu.Lock()
	s.last = stats
	s.lastCells = cellStats
	s.mu.Unlock()
	return rs, nil
}

// runDynamicPool drives the dynamic queue through a worker pool. Unlike
// the fixed pool there is no up-front work list: a single dispatcher
// goroutine (this one) owns the queue, the cell states, and every
// controller call at a batch boundary, so no lock is needed on any of
// them; workers only execute units and hand them to the persist stage,
// which sends each one back here once its append has returned. A done
// context stops work generation at the next dispatch boundary: the queue
// is dropped, in-flight units drain (journaled as they complete), and
// the context error is returned — the journal stays valid and
// warm-startable, holding exactly the completed units.
func (s *Scheduler) runDynamicPool(ctx context.Context, e *harness.Experiment, journal runstore.Store, ctrl Controller, cells []*cellState, queue []unit, stats *Stats) error {
	if len(queue) == 0 {
		return nil
	}
	// No clamp to the initial queue length: the queue grows as the
	// controller extends cells, so a small initial batch says nothing
	// about later breadth. Surplus workers idle on the channel.
	workers := s.opts.Workers
	if workers < 1 {
		workers = runtime.GOMAXPROCS(0)
	}

	// Every dispatched unit comes back on done exactly once — from its
	// worker if the runner failed, from the persist stage otherwise — so
	// when the loop below has counted them all back no worker can still
	// be persisting and the stage may close.
	jobs := make(chan unit)
	done := make(chan outcome)
	persist := s.newPersistStage(e.Name, journal, func(o outcome) { done <- o })
	defer persist.close()
	for w := 0; w < workers; w++ {
		go func() {
			for u := range jobs {
				if o := s.runUnit(ctx, e, u); o.err != nil {
					done <- o
				} else {
					persist.persist(o)
				}
			}
		}()
	}
	defer close(jobs)

	var firstErr error
	canceled := false
	ctxDone := ctx.Done()
	inflight := 0
	// The dispatcher owns the queue, so a plain Set per iteration keeps
	// the gauge exact without any coordination.
	if m := s.met; m != nil {
		defer m.queueDepth.Set(0)
	}
	for inflight > 0 || (firstErr == nil && !canceled && len(queue) > 0) {
		if m := s.met; m != nil {
			m.queueDepth.Set(int64(len(queue)))
		}
		var feed chan unit
		var next unit
		if firstErr == nil && !canceled && len(queue) > 0 {
			feed = jobs
			next = queue[0]
		}
		select {
		case <-ctxDone:
			// Disarm so the drain below blocks on completions instead of
			// spinning on the already-closed done channel.
			ctxDone = nil
			canceled = true
			queue = nil // stop generating work, drain what is in flight
		case feed <- next:
			queue = queue[1:]
			inflight++
		case out := <-done:
			inflight--
			stats.Retried += out.retried
			if out.err != nil {
				if ctx.Err() != nil {
					// An attempt abandoned by cancellation is not a unit
					// failure; the drain below reports the interruption.
					canceled, queue = true, nil
					continue
				}
				if firstErr == nil {
					firstErr = out.err
					queue = nil // stop generating work, drain what is in flight
				}
				continue
			}
			c := cells[out.u.row]
			c.reps[out.u.rep] = out.resp
			ctrl.Observe(c.key, out.u.rep, declaredResponses(e, out.resp))
			c.completed++
			stats.Executed++
			if m := s.met; m != nil {
				m.executed.Inc()
			}
			if c.done || c.completed < c.scheduled {
				continue
			}
			// Batch boundary: every scheduled replicate of the cell has
			// been observed — ask the controller for the next batch.
			target := ctrl.Target(c.key, c.completed)
			if target <= c.completed {
				c.done = true
				if m := s.met; m != nil {
					m.adaptStop.Inc()
				}
				continue
			}
			if m := s.met; m != nil {
				m.adaptGrow.Inc()
			}
			grown := make([]unit, 0, target-c.scheduled)
			for rep := c.scheduled; rep < target; rep++ {
				grown = append(grown, unit{row: c.row, rep: rep, a: c.a, hash: c.hash})
				c.reps = append(c.reps, nil)
			}
			c.scheduled = target
			if ctrl.Priority(c.key) {
				queue = append(grown, queue...)
			} else {
				queue = append(queue, grown...)
			}
		}
	}
	if firstErr != nil {
		return firstErr
	}
	if canceled || ctx.Err() != nil {
		return fmt.Errorf("sched: %s interrupted: %w (journal holds every completed unit; re-run to resume)", e.Name, context.Cause(ctx))
	}
	for _, c := range cells {
		if c.completed == 0 {
			return fmt.Errorf("sched: cell %s completed no replicates", c.a)
		}
	}
	return nil
}
