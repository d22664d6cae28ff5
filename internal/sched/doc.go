// Package sched is the concurrent experiment executor: one worker pool
// that grows every design cell batch by batch until its replication
// budget says enough, with bounded parallelism, per-unit retry and
// timeout, deterministic result ordering, and warm-start from a runstore
// store — units already persisted are replayed from disk instead of
// re-executed.
//
// How much is enough is policy, not mechanism. Options.Controller
// (internal/adaptive) is asked at every batch boundary and stops a cell
// when its sequential-analysis rule is met, so replication is spent where
// variance demands it. Without one the budget is the degenerate policy:
// every cell gets Design.Replicates, asked for in one batch, no cell has
// priority, and nothing is observed. Either way it is the same pool, and
// these rules hold for every run:
//
//  1. Replay. A unit the budget asks for is satisfied from the store when
//     the store holds a record of it that passes harness.CheckResponses
//     for the experiment as declared today; otherwise it runs. That is
//     decided unit by unit, so a resume over a store with a hole
//     (replicates 0 and 2 stored, 1 missing) runs exactly the missing
//     unit, and a row holds what the budget asked for, not everything the
//     store has.
//  2. Shards. A cell owned by another shard (Options.Shards) is replayed
//     the same way, its unstored units are counted in Stats.Skipped and
//     never scheduled, and its row is the contiguous prefix the store
//     held. Shards with a Controller is rejected.
//  3. Stats.Units is Executed + Replayed.
//  4. CellStats and the sched_adaptive_{continue,stop}_total counters
//     belong to the Controller: without one CellStats is nil and the
//     counters do not move.
//  5. Workers. Options.Workers goroutines, GOMAXPROCS when it is < 1,
//     whatever the size of the design; none are started when everything
//     replayed.
//  6. Cancellation and failure. Once the context is done, or a unit has
//     failed for good or an append has failed, nothing more is dispatched,
//     units no worker has started are taken back, and units in flight
//     finish and are stored. Execute then returns the failure, or an
//     error wrapping ctx.Err() — errors.Is(err, context.Canceled) holds
//     whether or not the caller cancelled with a cause. The store is left
//     valid and warm-startable: resume by running again over it.
//  7. Join. Execute returns when every dispatched unit has come back and
//     been landed — appended if it succeeded, result slot filled, counted —
//     and the committer has exited. Workers are told to exit at that point
//     and hold nothing; an attempt abandoned by Options.Timeout or by
//     cancellation is never joined (see Options.Timeout).
//
// The scheduler implements harness.Executor, so it plugs into the
// package-level harness.Execute, scoped to one run via
// harness.WithExecutor (how the public repro package binds it). It is an
// opt-in: the sequential executor remains the default because concurrent
// execution on one machine perturbs time measurements — use the
// scheduler for simulation-backed or I/O-bound experiments, for
// re-running large designs after a crash, and for analysis passes where
// wall-clock throughput matters more than measurement isolation.
//
// Concurrency contract: a Scheduler is safe for use from multiple
// goroutines; each Execute call runs its own worker pool and its own
// persist stage, and the goroutine that called Execute is the pool's
// dispatcher — the only one that touches the queue, the cells, the
// Controller and the result slots.
//
// Persist contract: the scheduler owns no durability itself; it
// delegates to whatever runstore.Store it runs against (Options.Store,
// or a per-experiment store opened from Options.JournalDir — the JSONL
// journal by default, a shard of a sharded store under sharded
// execution, or any backend via Options.OpenStore), and Append and
// AppendBatch are durable before they return. A finished unit goes
// through one persist stage:
//
//   - A store with a batch side (runstore.BatchAppender: both journals,
//     the shard store, the collector worker's remote store) gets group
//     commit. Workers hand each finished unit to one committer goroutine
//     per Execute over a bounded FIFO (256 units, a constant) and start
//     their next unit without waiting; the committer
//     (internal/groupcommit.Loop) takes the first queued unit, drains
//     whatever else is already queued, and lands it all with one
//     AppendBatch. There is no timer: the commit in progress is what
//     paces the next batch, so a runner slower than an fsync still
//     commits every unit alone and immediately, and a faster one pays
//     one fsync per batch instead of one per record.
//   - Any other store — a third-party five-method wrapper — is appended
//     to from the worker, one record at a time.
//
// Either way a unit is complete only when the append covering it has
// returned nil: only then does its result enter the ResultSet, count in
// Stats.Executed and sched_units_executed_total, and reach
// Controller.Observe. The FIFO preserves completion order, so the store
// receives units in the order workers finished them — with Workers: 1
// that is design order, and the raw journal of a single-worker run is
// byte for byte what it was when workers appended for themselves. After
// a crash the store holds a prefix, in completion order, of the finished
// units: finished units still queued (at most 256; for a runner slower
// than an fsync, none beyond the unit in flight) die with the process
// and re-execute on resume. The first append error fails the run; units
// of the failed batch and units queued behind it are dropped
// unjournaled.
//
// The Store seam is what makes the scheduler distribution-agnostic: the
// collector worker (internal/collector/client) hands Options.Store a
// remote-store adapter that spools each batch locally (one fsync) and
// sends it to a collector daemon (one request), and the scheduler
// neither knows nor cares — the same warm-start Lookup replays units
// other machines already ran, and the same Shards/Shard partition bounds
// what this process executes.
package sched
