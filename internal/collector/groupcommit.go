package collector

import (
	"time"

	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// commitReq is one ingest batch waiting to become durable: the decoded
// records, their wire size (for the byte-bounded gather window), and the
// channel the committer answers on once the fsync covering them returns.
type commitReq struct {
	recs  []runstore.Record
	bytes int64
	start time.Time
	done  chan error
}

// committer is the group-commit engine for one (experiment, shard): a
// single goroutine that drains concurrent ingest batches from a channel
// and lands them with one fsync per gather window instead of one per
// batch. The window opens when the first batch arrives and closes after
// Config.CommitWindow or once Config.CommitMaxBytes is gathered —
// whichever comes first — so an idle daemon commits a lone batch after
// at most the window, and a saturated one commits as fast as the disk
// syncs. Batches never reorder (one goroutine, one channel) and the
// reply is sent only after AppendBatch returns, so the 200 a worker
// sees still means "durably stored".
type committer struct {
	ch       chan commitReq
	store    *shardstore.Store
	window   time.Duration
	maxBytes int64
	met      *serverMetrics
	stopped  chan struct{} // closed when the goroutine drains and exits
}

func newCommitter(store *shardstore.Store, window time.Duration, maxBytes int64, met *serverMetrics) *committer {
	c := &committer{
		ch:       make(chan commitReq, 64),
		store:    store,
		window:   window,
		maxBytes: maxBytes,
		met:      met,
		stopped:  make(chan struct{}),
	}
	go c.run()
	return c
}

// run is the commit loop. Closing c.ch stops it: every batch already
// submitted is still committed before the goroutine exits, which is what
// lets Server.Close promise that acknowledged bytes are on disk.
func (c *committer) run() {
	defer close(c.stopped)
	timer := time.NewTimer(0)
	if !timer.Stop() {
		<-timer.C
	}
	for first := range c.ch {
		batch := []commitReq{first}
		size := first.bytes
		timer.Reset(c.window)
	gather:
		for size < c.maxBytes {
			select {
			case req, ok := <-c.ch:
				if !ok {
					break gather // Close: land what we hold, then exit via range
				}
				batch = append(batch, req)
				size += req.bytes
			case <-timer.C:
				break gather
			}
		}
		if !timer.Stop() {
			select {
			case <-timer.C:
			default:
			}
		}
		c.land(batch)
	}
}

// land makes one gathered batch durable with a single AppendBatch (one
// fsync per shard journal touched) and answers every waiter.
func (c *committer) land(batch []commitReq) {
	recs := 0
	for _, req := range batch {
		recs += len(req.recs)
	}
	flat := make([]runstore.Record, 0, recs)
	for _, req := range batch {
		flat = append(flat, req.recs...)
	}
	err := c.store.AppendBatch(flat)
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
func (e *experiment) commit(shard int, recs []runstore.Record, bytes int64) error {
	if len(recs) == 0 {
		return nil
	}
	req := commitReq{recs: recs, bytes: bytes, start: time.Now(), done: make(chan error, 1)}
	e.committers[shard].ch <- req
	return <-req.done
}
