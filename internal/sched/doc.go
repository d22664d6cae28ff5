// Package sched is the concurrent experiment executor: a worker pool
// that runs design rows x replicates with bounded parallelism, per-unit
// retry and timeout, deterministic result ordering, and warm-start from
// a runstore store — units already persisted are replayed from disk
// instead of re-executed.
//
// With Options.Controller set the fixed budget gives way to dynamic
// work generation: the controller (internal/adaptive) grows each cell
// batch by batch until its sequential-analysis stopping rule is met,
// so replication is spent where variance demands it.
//
// The scheduler implements harness.Executor, so it plugs into the
// package-level harness.Execute — scoped to one run via
// harness.WithExecutor (how the public repro package binds it), or
// process-wide via harness.SetDefaultExecutor. It is an
// opt-in: the sequential executor remains the default because concurrent
// execution on one machine perturbs time measurements — use the
// scheduler for simulation-backed or I/O-bound experiments, for
// re-running large designs after a crash, and for analysis passes where
// wall-clock throughput matters more than measurement isolation.
//
// Concurrency contract: a Scheduler is safe for use from multiple
// goroutines; each Execute call runs its own worker pool and its own
// persist stage, and every unit owns a distinct result slot. A timed-out
// unit's goroutine is abandoned, never joined — see Options.Timeout for
// the full abandonment contract.
//
// Persist contract: the scheduler owns no durability itself; it
// delegates to whatever runstore.Store it runs against (Options.Store,
// or a per-experiment store opened from Options.JournalDir — the JSONL
// journal by default, a shard of a sharded store under sharded
// execution, or any backend via Options.OpenStore), and Append and
// AppendBatch are durable before they return. A finished unit goes
// through one persist stage, the same for the fixed and the adaptive
// pool:
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
// Cancellation contract: Execute takes a context; once it is done the
// scheduler stops feeding work, lets in-flight units finish, waits for
// every worker to exit and for the committer to land everything they
// queued, and returns the context error. The store is always left valid
// and warm-startable — an interrupted run resumes by re-running with the
// same store.
//
// The Store seam is what makes the scheduler distribution-agnostic: the
// collector worker (internal/collector/client) hands Options.Store a
// remote-store adapter that spools each batch locally (one fsync) and
// sends it to a collector daemon (one request), and the scheduler
// neither knows nor cares — the same warm-start Lookup replays units
// other machines already ran, and the same Shards/Shard partition bounds
// what this process executes.
package sched
