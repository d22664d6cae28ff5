package client

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"repro/internal/runstore"
)

// remoteStore is the runstore.Store a collector worker's scheduler
// executes against — the remote-store adapter. Three layers answer the
// Store contract:
//
//   - durability: every append lands in a local spool journal (one fsync
//     per Append or AppendBatch) before anything crosses the network, so
//     a crashed or disconnected worker always leaves a valid, ordinary
//     runstore journal behind;
//   - collection: appends are tee'd into batches of FlushEvery records
//     and streamed to the collector's ingest endpoint; an acknowledged
//     batch is durable on the server too (at-least-once — a retried
//     batch converges, the stores are last-wins);
//   - warm start: Lookup serves the lease's server-side snapshot
//     (records previous owners collected) before the local journal, so
//     the scheduler replays them through the exact journal warm-start
//     machinery a single-machine resume uses.
//
// Once the lease is lost (the renewer noticed, or ingest answered 410
// or 409), Append fails fast with the cause; the scheduler drains and
// stops cleanly.
type remoteStore struct {
	c     *Client
	ctx   context.Context // the shard run's context, bounds every ingest
	lease string

	mu    sync.Mutex
	local *runstore.Journal
	warm  map[string]runstore.Record
	buf   []runstore.Record
	every int

	streamed atomic.Int64 // records acknowledged by the server
	lost     atomic.Pointer[error]
}

var (
	_ runstore.Store         = (*remoteStore)(nil)
	_ runstore.BatchAppender = (*remoteStore)(nil)
)

// newRemoteStore assembles the adapter around an acquired lease.
func newRemoteStore(ctx context.Context, c *Client, lease, localPath string, warm map[string]runstore.Record, every int) (*remoteStore, error) {
	local, err := runstore.Open(localPath)
	if err != nil {
		return nil, err
	}
	if warm == nil {
		warm = map[string]runstore.Record{}
	}
	if every < 1 {
		every = 32
	}
	return &remoteStore{c: c, ctx: ctx, lease: lease, local: local, warm: warm, every: every}, nil
}

// markLost records why the lease is gone; subsequent Appends fail fast.
func (r *remoteStore) markLost(err error) {
	r.lost.CompareAndSwap(nil, &err)
}

// lostErr returns the recorded loss cause, if any.
func (r *remoteStore) lostErr() error {
	if p := r.lost.Load(); p != nil {
		return *p
	}
	return nil
}

// Lookup implements runstore.Store: the warm server-side snapshot
// first — replaying another worker's collected unit must win over
// re-executing it — then this worker's own spool.
func (r *remoteStore) Lookup(experiment, hash string, replicate int) (runstore.Record, bool) {
	r.mu.Lock()
	rec, ok := r.warm[runstore.Key(experiment, hash, replicate)]
	r.mu.Unlock()
	if ok {
		return rec, true
	}
	return r.local.Lookup(experiment, hash, replicate)
}

// ReplicateCount implements runstore.Store: the contiguous replicate
// prefix present in either layer.
func (r *remoteStore) ReplicateCount(experiment, hash string) int {
	n := 0
	for {
		if _, ok := r.Lookup(experiment, hash, n); !ok {
			return n
		}
		n++
	}
}

// Scan implements runstore.Store over the local spool — the records
// this worker itself executed, in first-appended order. Warm-snapshot
// records are deliberately excluded: they are the previous owner's
// stream, already durable on the server, and a worker artifact (the
// spool journal, merge input) must hold exactly what this worker ran.
func (r *remoteStore) Scan() iter.Seq2[runstore.Record, error] {
	return r.local.Scan()
}

// Append implements runstore.Store as a batch of one.
func (r *remoteStore) Append(rec runstore.Record) error {
	return r.AppendBatch([]runstore.Record{rec})
}

// AppendBatch implements runstore.BatchAppender — the path the
// scheduler's persist stage takes: the whole batch is spooled locally
// with one fsync (durable before return), then streamed in ingests of
// FlushEvery records, so the server sees the same requests whatever the
// batch size was. An ingest refusal (lease lost, conflict) surfaces as
// the append error, which is how the scheduler learns to stop.
func (r *remoteStore) AppendBatch(recs []runstore.Record) error {
	if err := r.lostErr(); err != nil {
		return fmt.Errorf("collector client: lease %s: %w", r.lease, err)
	}
	normalized, err := runstore.NormalizeBatch(recs)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	if err := r.local.AppendBatch(normalized); err != nil {
		return err
	}
	r.c.met.spooled.Add(int64(len(normalized)))
	r.buf = append(r.buf, normalized...)
	return r.streamLocked(r.every)
}

// Flush streams whatever the batch buffer holds.
func (r *remoteStore) Flush() error {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.streamLocked(1)
}

// streamLocked sends the buffer's head in ingests of at most FlushEvery
// records for as long as it holds atLeast of them. On a terminal refusal
// the loss is recorded so every later append fails fast.
func (r *remoteStore) streamLocked(atLeast int) error {
	for len(r.buf) >= atLeast {
		batch := r.buf[:min(len(r.buf), r.every)]
		if err := r.c.Ingest(r.ctx, r.lease, batch); err != nil {
			r.markLost(err)
			return fmt.Errorf("collector client: streaming %d record(s): %w", len(batch), err)
		}
		r.streamed.Add(int64(len(batch)))
		r.buf = r.buf[len(batch):]
	}
	if len(r.buf) == 0 {
		r.buf = nil // let the streamed records go
	}
	return nil
}

// Streamed returns how many records the server has acknowledged.
func (r *remoteStore) Streamed() int64 { return r.streamed.Load() }

// LocalPath returns the spool journal's file path.
func (r *remoteStore) LocalPath() string { return r.local.Path() }

// Close implements runstore.Store: a final flush (unless the lease is
// already lost — there is nobody to stream to), then the spool closes.
// The spool file stays behind either way; it is the worker's durable
// account of what it ran.
func (r *remoteStore) Close() error {
	var flushErr error
	if r.lostErr() == nil {
		flushErr = r.Flush()
	}
	closeErr := r.local.Close()
	if flushErr != nil {
		return flushErr
	}
	return closeErr
}
