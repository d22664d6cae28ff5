// Package client is the worker side of the run collector
// (internal/collector): it turns a remote collector into a
// harness.Executor, so any experiment that runs on the in-process
// scheduler runs, unchanged, as one worker of a distributed fleet.
//
// The layering reuses every local guarantee instead of re-deriving it:
//
//   - Worker is the executor. For each harness experiment it loops
//     acquire → run → release: it leases one shard of the experiment's
//     pool from the collector, executes exactly that shard through
//     internal/sched (Options.Store + Shards/Shard — the same partition
//     arithmetic the single-disk workflow uses), and releases it
//     complete, until the server answers "experiment complete". It does
//     not poll for that answer: an acquire that finds every incomplete
//     shard leased carries wait_ms = Options.AcquireWait and is held by
//     the daemon until a release, an expiry or the last completion
//     decides it.
//   - remoteStore is the runstore.Store (and BatchAppender) the
//     scheduler journals into: each batch of finished units the
//     scheduler's committer hands over is validated and encoded once,
//     then committed to a local spool journal (durability — one fsync on
//     this machine) and, side by side with that, sent to the collector
//     as one ingest of the same bytes (collection — the batch counts as
//     complete only once it is spooled and the daemon acknowledged it),
//     with the shard's server-side warm-start snapshot behind Lookup so
//     units a previous owner already collected replay instead of
//     re-executing. Either copy can be ahead after a crash; what only
//     the spool holds is sent again before the next run over it starts.
//   - A renewal goroutine keeps the lease alive at a third of its TTL.
//
// Failure contract: on a server-reported conflict (409 — a record that
// does not belong to the lease) or lease loss (410 — the TTL expired and
// the shard moved on), the worker stops cleanly with a descriptive
// error. The local spool journal is always valid — it is an ordinary
// runstore journal, merge-able and warm-startable — and the records the
// server acknowledged before the stop warm-start the shard's next
// owner. Backpressure (429 + Retry-After) is absorbed inside the client
// by honoring the hinted wait; the scheduler above never sees it.
package client
