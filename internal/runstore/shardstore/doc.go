// Package shardstore is where shard K of N lives: the file layout of one
// experiment's journal split across N shard files in a directory, so that
// N worker processes (or machines over a shared filesystem) can each
// write one file with no cross-process coordination, and runstore.Merge
// folds the shards back into a single canonical journal.
//
// Routing is runstore.ShardIndex over a record's assignment hash — the
// function the scheduler partitions design rows by and the collector
// checks ingested records against — so a worker that executes only shard
// K's rows writes only shard K's records. A shard file is an ordinary
// runstore journal, opened with runstore.Open at Path and named as
// docs/FORMAT.md specifies; any tool that reads journals — diff,
// compact, merge, inspect — works on a shard file unchanged. Exactly one
// process writes a given shard file: the scheduler's row partition and
// the collector's shard leases are what keep the files disjoint.
package shardstore
