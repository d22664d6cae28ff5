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
//   - collection: each spooled batch is then streamed to the
//     collector's ingest endpoint as one request, and the append returns
//     only once the server acknowledged it — durable there too
//     (at-least-once — a retried batch converges, the stores are
//     last-wins);
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

	local *runstore.Journal
	warm  map[string]runstore.Record // read-only once the store is built
	// mu makes spool-then-stream one step, so the server receives
	// batches in the order the spool holds them.
	mu sync.Mutex

	streamed atomic.Int64 // records acknowledged by the server
	lost     atomic.Pointer[error]
}

var (
	_ runstore.Store         = (*remoteStore)(nil)
	_ runstore.BatchAppender = (*remoteStore)(nil)
)

// newRemoteStore assembles the adapter around an acquired lease.
func newRemoteStore(ctx context.Context, c *Client, lease, localPath string, warm map[string]runstore.Record) (*remoteStore, error) {
	local, err := runstore.Open(localPath)
	if err != nil {
		return nil, err
	}
	if warm == nil {
		warm = map[string]runstore.Record{}
	}
	return &remoteStore{c: c, ctx: ctx, lease: lease, local: local, warm: warm}, nil
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
	if rec, ok := r.warm[runstore.Key(experiment, hash, replicate)]; ok {
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
// with one fsync, then sent as one ingest. A nil return means spooled
// and acknowledged by the collector; nothing is held back for a later
// call. An ingest refusal (lease lost, conflict) is recorded, so every
// later append fails fast, and surfaces as the append error, which is
// how the scheduler learns to stop.
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
	if err := r.c.Ingest(r.ctx, r.lease, normalized); err != nil {
		r.markLost(err)
		return fmt.Errorf("collector client: streaming %d record(s): %w", len(normalized), err)
	}
	r.streamed.Add(int64(len(normalized)))
	return nil
}

// Streamed returns how many records the server has acknowledged.
func (r *remoteStore) Streamed() int64 { return r.streamed.Load() }

// LocalPath returns the spool journal's file path.
func (r *remoteStore) LocalPath() string { return r.local.Path() }

// Close implements runstore.Store: it closes the spool. Every append
// that returned nil has already been streamed, so there is nothing to
// flush; the spool file stays behind — it is the worker's durable
// account of what it ran.
func (r *remoteStore) Close() error { return r.local.Close() }
