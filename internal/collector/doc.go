// Package collector is the run-collector daemon: a long-lived HTTP
// service that remote workers stream run records to, multiplexing many
// experiments and many concurrent clients over the persistent stores in
// internal/runstore. It is the scale-out step past internal/sched's
// N-processes-on-one-disk sharding — the processes move to other
// machines, the disk stays here.
//
// The design keeps process/control logic and the data layer separate:
// the collector owns leases, shard assignment, and backpressure;
// everything durable is one plain runstore journal per shard, at the
// path internal/runstore/shardstore names, so every existing tool — merge,
// compact, inspect, diff, archive — works on a collected run with no
// collector-specific code. The wire format for records IS the journal's
// line framing (runstore.EncodeWire/DecodeWire), so collected bytes and
// journaled bytes cannot drift.
//
// Control flow, per experiment:
//
//	acquire: a worker asks for work and is granted a lease on one free
//	         shard — an exclusive, TTL-bounded claim. The shard's
//	         existing records (from an earlier run, or a dead worker's
//	         partial stream) are served as a warm-start snapshot, so the
//	         new owner replays them instead of re-executing.
//	ingest:  the worker streams completed records as NDJSON. Appends are
//	         validated against the lease (right experiment, right shard)
//	         and group-committed into the shard's journal — a shard's
//	         committer (internal/groupcommit.Loop) lands the first queued
//	         batch plus whatever queued during its previous fsync, with
//	         no timer and nothing to tune; per-experiment
//	         in-flight bytes are bounded, and requests past the bound
//	         get 429 + Retry-After (the backpressure contract).
//	renew:   leases are renewed at a fraction of the TTL. A lease that
//	         expires un-renewed returns its shard to the pool; the next
//	         acquire hands it, warm, to a surviving worker.
//	release: a completed shard leaves the pool for good; when every
//	         shard of an experiment is done, acquire answers 204 and
//	         workers drain away.
//
// Concurrency and durability contract: every handler is safe for
// concurrent use (one mutex guards the control state; the journals carry
// their own locking). A record acknowledged by ingest has been durably
// appended (journal fsync) before the response is written. Delivery is
// at-least-once — a worker that times out re-sends its batch — and the
// stores are last-wins keyed by (experiment, assignment, replicate), so
// deterministic re-sends and crash re-executions converge to the same
// merged bytes; runstore.Merge's conflict report catches the
// non-deterministic rest. Expiry is enforced lazily, at the next touch
// of the lease table, so the server needs no background goroutine and
// tests can drive the clock (Config.Clock).
package collector
