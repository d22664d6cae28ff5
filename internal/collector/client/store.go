package client

import (
	"context"
	"fmt"
	"iter"
	"sync"
	"sync/atomic"

	"repro/internal/runstore"
	"repro/internal/sched"
)

// remoteStore is the runstore.Store a collector worker's scheduler
// executes against — the remote-store adapter. Three layers answer the
// Store contract:
//
//   - durability: every append lands in a local spool journal (one fsync
//     per Append or AppendBatch), so a crashed or disconnected worker
//     always leaves a valid, ordinary runstore journal behind;
//   - collection: concurrently with that fsync the same batch — the same
//     bytes, on the NDJSON wire — is streamed to the collector's ingest
//     endpoint as one request, and the append returns only once the
//     spool holds it and the server acknowledged it, durable there too
//     (at-least-once — a retried batch converges, the stores are
//     last-wins);
//   - warm start: Lookup serves the lease's server-side snapshot
//     (records previous owners collected) before the local journal, so
//     the scheduler replays them through the exact journal warm-start
//     machinery a single-machine resume uses.
//
// The two copies of a batch are made side by side, so a crash (or a
// failure of one side) can leave either ahead of the other. A record
// only the server holds comes back in the next owner's snapshot; a
// record only the spool holds is sent again by restream before the next
// shard run over that spool starts. Which copy landed first cannot
// change what is collected: both stores are last-wins over the same
// keys.
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
	// mu makes spool-and-stream one step, so the server receives
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
// scheduler's persist stage takes: the batch is validated and encoded
// once, then spooled locally (one fsync) and sent as one ingest at the
// same time. A nil return means both: spooled and acknowledged by the
// collector; nothing is held back for a later call. A spool failure
// surfaces as the append error. An ingest refusal (lease lost,
// conflict) is recorded, so every later append fails fast, and surfaces
// as the append error unless the spool failed too — either is how the
// scheduler learns to stop.
func (r *remoteStore) AppendBatch(recs []runstore.Record) error {
	if err := r.lostErr(); err != nil {
		return fmt.Errorf("collector client: lease %s: %w", r.lease, err)
	}
	batch, err := runstore.EncodeBatch(recs)
	if err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	spooled := make(chan error, 1)
	go func() { spooled <- r.local.CommitBatch(batch) }()
	sendErr := r.send(batch)
	if err := <-spooled; err != nil {
		return err
	}
	r.c.met.spooled.Add(int64(batch.Len()))
	return sendErr
}

// send streams a batch encoded for the spool under the lease and counts
// it acknowledged; a refusal marks the lease lost. On the NDJSON wire —
// byte for byte the journal's line framing — the POST body is the
// spool's bytes; the binary wire encodes its own. Callers hold r.mu.
func (r *remoteStore) send(batch *runstore.EncodedBatch) error {
	wire, err := batch, error(nil)
	if r.c.binary {
		wire, err = runstore.EncodeBatchBinary(batch.Records())
	}
	if err == nil {
		err = r.c.send(r.ctx, r.lease, wire)
	}
	if err != nil {
		r.markLost(err)
		return fmt.Errorf("collector client: streaming %d record(s): %w", batch.Len(), err)
	}
	r.streamed.Add(int64(batch.Len()))
	return nil
}

// restream sends the collector every record of this shard that the
// spool holds and the warm snapshot lacks: records a previous run over
// this spool made durable here but never got acknowledged (it died
// between its spool fsync and the ack, or its ingest failed). Lookup
// finds them, so the scheduler would replay them and stream nothing —
// and release the shard complete with the collector never having seen
// them. It runs before the scheduler does, and cuts its ingests at the
// scheduler's own largest batch, sched.MaxBatch.
func (r *remoteStore) restream(experiment string, shard, shards int) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	var pending []runstore.Record
	flush := func() error {
		if len(pending) == 0 {
			return nil
		}
		batch, err := runstore.EncodeBatch(pending)
		if err != nil {
			return err
		}
		pending = pending[:0]
		return r.send(batch)
	}
	for rec, err := range r.local.Scan() {
		if err != nil {
			return err
		}
		if _, collected := r.warm[rec.Key()]; collected ||
			rec.Experiment != experiment || runstore.ShardIndex(rec.Hash, shards) != shard {
			continue
		}
		if pending = append(pending, rec); len(pending) == sched.MaxBatch {
			if err := flush(); err != nil {
				return err
			}
		}
	}
	return flush()
}

// Streamed returns how many records the server has acknowledged.
func (r *remoteStore) Streamed() int64 { return r.streamed.Load() }

// LocalPath returns the spool journal's file path.
func (r *remoteStore) LocalPath() string { return r.local.Path() }

// Close implements runstore.Store: it closes the spool. Every append
// that returned nil has already been acknowledged, so there is nothing
// to flush; the spool file stays behind — it is the worker's durable
// account of what it ran.
func (r *remoteStore) Close() error { return r.local.Close() }
