package sched

import (
	"time"

	"repro/internal/groupcommit"
	"repro/internal/runstore"
)

// commitQueue bounds the finished units waiting for the committer, and
// with it both the largest batch one AppendBatch carries and the most
// finished units a crash can send back for re-execution. At 256 records
// per fsync the sync costs less per record than encoding the record
// does (≈150 µs ÷ 256 against ≈1.3 µs where bench/ measured them), so a
// deeper queue would buy no throughput, only more to re-run.
const commitQueue = 256

// outcome is one live unit on its way back from a worker: through the
// persist stage when the runner succeeded, around it when it failed.
type outcome struct {
	u        unit
	resp     map[string]float64
	retried  int
	err      error     // the runner's failure, or the append's
	finished time.Time // when the runner returned; zero when uninstrumented
}

// persistStage is the one place a finished unit becomes a stored record.
// A unit is complete — its
// result visible, counted in Stats, observed by the controller — only
// once the append covering it has returned; the stage calls complete
// exactly once per persisted unit, with err set when that append failed.
//
// How the append happens is chosen from the store itself. A store with a
// batch side (runstore.BatchAppender) gets one committer goroutine per
// Execute: workers queue finished units on a bounded FIFO and move on to
// their next unit, and the committer (groupcommit.Loop) takes the first
// queued unit, drains whatever else is already queued without waiting,
// and lands it all with one AppendBatch. The pacing is the sync itself —
// there is no timer — so a runner slower than an fsync still commits
// every unit alone and at once, and a faster one gets batches as large
// as one fsync lasts. Any other store is appended to from the worker,
// record by record: a committer with no batch to offer would only
// serialise encoding behind the fsync.
type persistStage struct {
	experiment string
	store      runstore.Store         // nil: nothing to persist
	batch      runstore.BatchAppender // the store's batch side, nil if it has none
	met        *schedMetrics
	complete   func(outcome)
	queue      chan outcome  // workers → committer, in completion order
	exited     chan struct{} // closed when the committer has landed everything
}

// newPersistStage starts the stage for one Execute. complete is called
// from the committer goroutine when there is one, otherwise from the
// workers, concurrently.
func (s *Scheduler) newPersistStage(experiment string, store runstore.Store, complete func(outcome)) *persistStage {
	p := &persistStage{experiment: experiment, store: store, met: s.met, complete: complete}
	if b, ok := store.(runstore.BatchAppender); ok {
		p.batch = b
		p.queue = make(chan outcome, commitQueue)
		p.exited = make(chan struct{})
		go p.commitLoop()
	}
	return p
}

// persist takes one successfully run unit from a worker.
func (p *persistStage) persist(o outcome) {
	if p.batch != nil {
		// The committer receives until close, so this send cannot hang.
		p.queue <- o
		return
	}
	if p.store != nil {
		o.err = p.store.Append(p.record(o))
		p.committed(o.finished)
	}
	p.complete(o)
}

// close ends the stage; call it once no worker can reach persist any
// more. It returns when the committer has landed every queued unit.
func (p *persistStage) close() {
	if p.queue != nil {
		close(p.queue)
		<-p.exited
	}
}

// commitLoop is the committer: groupcommit.Loop over the queue, which
// preserves completion order, so the store receives units in exactly
// the order workers finished them. The first AppendBatch error fails the
// run: its units and every unit queued after them complete with that
// error, unjournaled.
func (p *persistStage) commitLoop() {
	defer close(p.exited)
	var failed error
	groupcommit.Loop(p.queue, commitQueue, func(batch []outcome) {
		if failed == nil {
			recs := make([]runstore.Record, len(batch))
			for i, o := range batch {
				recs[i] = p.record(o)
			}
			failed = p.batch.AppendBatch(recs)
			p.committed(batch[0].finished)
		}
		for _, o := range batch {
			o.err = failed
			p.complete(o)
		}
	})
}

func (p *persistStage) record(o outcome) runstore.Record {
	return runstore.Record{
		Experiment: p.experiment,
		Row:        o.u.row,
		Replicate:  o.u.rep,
		Hash:       o.u.hash,
		Assignment: o.u.a,
		Responses:  o.resp,
	}
}

// committed records one append call: since is when its first (or only)
// unit left the runner.
func (p *persistStage) committed(since time.Time) {
	if m := p.met; m != nil {
		m.commits.Inc()
		m.commitSeconds.Observe(time.Since(since).Seconds())
	}
}
