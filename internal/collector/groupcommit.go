package collector

import (
	"time"

	"repro/internal/groupcommit"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// commitReq is one ingest batch waiting to become durable: the decoded
// records and the channel the committer answers on once the fsync
// covering them returns.
type commitReq struct {
	recs  []runstore.Record
	start time.Time
	done  chan error
}

// commitQueue bounds the ingest batches waiting for one shard's
// committer, and with it the most batches one fsync covers. The bytes
// they hold are bounded before they get here, by MaxInflight admission;
// a full queue only makes the next handler wait for the sync in flight.
const commitQueue = 64

// committer is the group-commit engine for one (experiment, shard): a
// single goroutine running groupcommit.Loop over the shard's queue. It
// takes the first queued ingest batch, adds whatever else queued while
// the previous fsync was in flight, and lands it all with one
// AppendBatch. Nothing waits on a clock: a lone batch is committed at
// once, and concurrent ones share a sync exactly when the disk is the
// bottleneck. Batches never reorder (one goroutine, one channel) and the
// reply is sent only after AppendBatch returns, so the 200 a worker sees
// still means "durably stored".
type committer struct {
	ch      chan commitReq
	store   *shardstore.Store
	met     *serverMetrics
	stopped chan struct{} // closed when the goroutine drains and exits
}

// newCommitter starts the commit loop. Closing c.ch stops it: every
// batch already submitted is still committed before the goroutine
// exits, which is what lets Server.Close promise that acknowledged
// bytes are on disk.
func newCommitter(store *shardstore.Store, met *serverMetrics) *committer {
	c := &committer{
		ch:      make(chan commitReq, commitQueue),
		store:   store,
		met:     met,
		stopped: make(chan struct{}),
	}
	go func() {
		defer close(c.stopped)
		groupcommit.Loop(c.ch, commitQueue, c.land)
	}()
	return c
}

// land makes one gathered batch durable with a single AppendBatch (one
// fsync per shard journal touched) and answers every waiter.
func (c *committer) land(batch []commitReq) {
	recs := batch[0].recs // a lone request's records go down as they are
	if len(batch) > 1 {
		n := 0
		for _, req := range batch {
			n += len(req.recs)
		}
		recs = make([]runstore.Record, 0, n)
		for _, req := range batch {
			recs = append(recs, req.recs...)
		}
	}
	err := c.store.AppendBatch(recs)
	now := time.Now()
	c.met.groupCommits.Inc()
	c.met.fsyncCoalesced.Add(int64(len(batch) - 1))
	for _, req := range batch {
		c.met.commitSeconds.Observe(now.Sub(req.start).Seconds())
		req.done <- err
	}
}

// commit submits one decoded ingest batch for the experiment's shard and
// blocks until the fsync covering it returns. Callers must have entered
// the experiment's submitter group (experiment.enter) so Close cannot
// close the channel mid-send.
func (e *experiment) commit(shard int, recs []runstore.Record) error {
	if len(recs) == 0 {
		return nil
	}
	req := commitReq{recs: recs, start: time.Now(), done: make(chan error, 1)}
	e.committers[shard].ch <- req
	return <-req.done
}
