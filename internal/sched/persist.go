package sched

import (
	"time"

	"repro/internal/groupcommit"
	"repro/internal/runstore"
)

// MaxBatch bounds the finished units waiting for the committer, and with
// it both the largest batch one AppendBatch carries and the most finished
// units a crash can send back for re-execution. It has two users: the
// persist stage, where it caps the queue and groupcommit.Loop's batch,
// and the collector worker's restream (internal/collector/client), which
// cuts its ingests at it so that a restream ingest is never larger than a
// live one.
//
// It is sized for the slowest batch store, the collector worker's remote
// store, whose commit is an ingest round trip plus a spool fsync: ≈3 ms
// at the median on bench/'s fleet-collect workload (2-vCPU Xeon, ext4),
// about 20 times a local journal's ≈150 µs fsync. Only a runner faster
// than one commit reaches the bound, and for it MaxBatch units are about
// one round trip of work: at ≈8 µs a unit, ≈375 units finish per round
// trip, so 1 024 leaves room for jitter. A bound sized for the fsync
// alone (256) fills in ≈2 ms and leaves the runner waiting for the ack;
// 4 096 measures only marginally better than 1 024 (BenchmarkFleetCollect
// in internal/collector at -cpu 2: exec-ms 32–37 against 32–39, and
// 40–49 at 256). The largest NDJSON ingest this makes is ≈143 KB, far
// below the daemon's default 8 MiB MaxInflight.
const MaxBatch = 1024

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
// and lands it all with one AppendBatch. The pacing is the commit itself
// — there is no timer — so a runner slower than a commit still commits
// every unit alone and at once, and a faster one gets batches as large
// as one commit lasts, up to MaxBatch. Any other store is appended to
// from the worker, record by record: a committer with no batch to offer
// would only serialise encoding behind the fsync.
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
// workers, concurrently. units is how many units the Execute dispatches
// at its start: the queue holds min(MaxBatch, units), so a small Execute
// allocates no deeper queue than it can fill. An adaptive run whose
// queue grows later keeps that smaller bound.
func (s *Scheduler) newPersistStage(experiment string, store runstore.Store, units int, complete func(outcome)) *persistStage {
	p := &persistStage{experiment: experiment, store: store, met: s.met, complete: complete}
	if b, ok := store.(runstore.BatchAppender); ok {
		p.batch = b
		p.queue = make(chan outcome, min(MaxBatch, units))
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
	groupcommit.Loop(p.queue, MaxBatch, func(batch []outcome) {
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
