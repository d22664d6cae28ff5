package runstore

import (
	"hash/fnv"
	"iter"
)

// Store is the persistence interface the scheduler (internal/sched)
// executes against: lookup and warm-start reads, durable appends, and a
// deterministic streaming view of every record. *Journal — the
// single-file JSONL backend, one per shard file in a sharded run — is
// the reference implementation; archivestore (a block-indexed single
// file) is the million-run one, and the collector worker's remote store
// the one that streams to a daemon; each plugs in behind the same five
// methods without touching the scheduler.
//
// The scheduler treats a unit as complete only when the Append — or the
// AppendBatch, for a store that is also a BatchAppender — covering it
// has returned nil, and hands units over in the order workers finished
// them; after a crash a store therefore holds a prefix, in completion
// order, of the finished units (internal/sched's persist contract).
//
// Contract notes for implementors:
//   - Lookup and ReplicateCount must serve the last-wins view of every
//     record Append has durably persisted, plus whatever the store loaded
//     on open.
//   - Append (and AppendBatch, where the store is a BatchAppender) must be
//     durable before it returns: a crash immediately after a successful
//     call must not lose a record of it.
//   - Scan must be deterministic for a given store state, must never
//     materialize the full record set (hand records to the consumer one
//     at a time), and must tolerate a concurrent Append: the iteration
//     walks a snapshot of the KEY SET present when it started, without
//     blocking writers for its whole duration. Keys appended later are
//     not yielded; each key's record is read at yield time, so a
//     superseding append that lands mid-scan may surface in its latest
//     form — value-level point-in-time isolation is not promised. A
//     read failure mid-iteration is yielded as the error, after which
//     the sequence stops.
//   - All methods must be safe for concurrent use.
//
// Contract notes for callers: the records Lookup and Scan serve are
// read-only — their maps are the store's. The journal hands the
// replicates of one cell one shared assignment map.
type Store interface {
	// Lookup returns the stored record for one unit, if present.
	Lookup(experiment, hash string, replicate int) (Record, bool)
	// ReplicateCount returns how many contiguous replicates (0..n-1) of
	// one cell the store holds — the warm-start budget already spent.
	ReplicateCount(experiment, hash string) int
	// Scan streams all distinct records in the store's deterministic
	// order, one at a time. Use runstore.Collect at the few sites that
	// truly need the whole slice.
	Scan() iter.Seq2[Record, error]
	// Append validates, persists, and indexes one record.
	Append(Record) error
	// Close releases the store's resources; reads may keep serving the
	// in-memory view, Append fails afterwards.
	Close() error
}

// BatchAppender is the optional batch side of the Store contract — the
// group-commit primitive. A store that has one cheap way to make many
// records durable at once (one Write and one Sync for the journals)
// implements it, and the scheduler's persist stage (internal/sched) then
// commits finished units in batches instead of one by one; a store
// without it is appended to record by record. Every shipped store — the
// journal, the archive, the collector worker's remote store — implements
// it.
//
// AppendBatch validates every record before it writes a byte, so a batch
// holding one invalid record leaves nothing behind; it is durable before
// it returns, like Append; its bytes are those of the same records
// appended one by one, in slice order; and on error nothing from the
// batch is served by Lookup or Scan. After a crash mid-batch the file
// holds a prefix of the batch plus at most one torn record. An empty
// batch is a no-op.
type BatchAppender interface {
	AppendBatch([]Record) error
}

// The journal is the reference Store backend, batch side included.
var (
	_ Store         = (*Journal)(nil)
	_ BatchAppender = (*Journal)(nil)
)

// ShardIndex maps an assignment hash to one of n shards. Every layer of
// the sharded workflow — the scheduler's row partition, the collector's
// ingest check, and the shard-plan tooling — must agree on this
// function, or disjoint workers would write overlapping shards. The hash
// string is re-hashed (FNV-1a) rather than parsed so any stable cell
// identifier shards evenly, not just the 16-hex AssignmentHash form.
func ShardIndex(hash string, n int) int {
	if n <= 1 {
		return 0
	}
	h := fnv.New64a()
	h.Write([]byte(hash))
	return int(h.Sum64() % uint64(n))
}

// Info summarizes one store file without opening it for writing.
type Info struct {
	Records int // complete records in the file, including superseded ones
	// Distinct counts the distinct (experiment, hash, replicate) keys. Only
	// a pass that indexes the entries knows it: Inspect counts it, a
	// SourceReader's own Info leaves it zero.
	Distinct int
	Torn     bool   // the file ends in a torn (crash-interrupted) tail
	Detail   string // backend-specific shape, e.g. archive block/index stats
}

// Inspect reads a store file read-only, in whatever registered format
// it sniffs as, and reports its shape — the status probe behind
// `perfeval inspect` and `perfeval shard-plan`. A torn or truncated tail
// is detected and reported via Info.Torn, never silently repaired or
// silently counted past; a corrupt interior record is an error. Every
// format is read through OpenSource, the reader every other tool uses,
// whose Info supplies Detail; Inspect counts Distinct.
func Inspect(path string) (Info, error) {
	r, err := OpenSource(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	distinct := newKeyIndex(0, 0)
	for e, err := range r.Entries() {
		if err != nil {
			return Info{}, err
		}
		distinct.slot(&e)
	}
	info := r.Info()
	info.Distinct = len(distinct.holder)
	return info, nil
}
