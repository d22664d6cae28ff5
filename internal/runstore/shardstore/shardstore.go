package shardstore

import (
	"fmt"
	"iter"
	"path/filepath"

	"repro/internal/runstore"
)

// AllShards makes Open own (and create) every shard of the store.
const AllShards = -1

// Store is a sharded directory of runstore journals for one experiment.
// It implements runstore.Store. Appends route by assignment hash; a
// store opened with OpenShard owns a single shard and rejects appends
// that route elsewhere, which is exactly the misconfiguration guard the
// disjoint-worker workflow needs.
type Store struct {
	dir        string
	experiment string
	shards     int
	owned      int // AllShards, or the single shard this store owns
	files      []*runstore.Journal
}

var (
	_ runstore.Store         = (*Store)(nil)
	_ runstore.BatchAppender = (*Store)(nil)
)

// Open opens (creating as needed) all shards of the experiment's store
// under dir. Use it for single-process runs that want sharded files —
// e.g. to pre-split a journal for later per-shard workers — or to read
// a complete sharded run as one store.
func Open(dir, experiment string, shards int) (*Store, error) {
	return open(dir, experiment, AllShards, shards)
}

// OpenShard opens only shard `shard` of the experiment's store: the
// worker-process mode. Lookups outside the owned shard miss (the worker
// has no business replaying rows it does not execute), and appends
// outside it fail loudly instead of corrupting another worker's file.
func OpenShard(dir, experiment string, shard, shards int) (*Store, error) {
	if shard < 0 || shard >= shards {
		return nil, fmt.Errorf("shardstore: shard %d out of range [0,%d)", shard, shards)
	}
	return open(dir, experiment, shard, shards)
}

func open(dir, experiment string, owned, shards int) (*Store, error) {
	if shards < 1 {
		return nil, fmt.Errorf("shardstore: need >= 1 shard, have %d", shards)
	}
	if experiment == "" {
		return nil, fmt.Errorf("shardstore: experiment name required")
	}
	s := &Store{dir: dir, experiment: experiment, shards: shards, owned: owned,
		files: make([]*runstore.Journal, shards)}
	for i := 0; i < shards; i++ {
		if owned != AllShards && i != owned {
			continue // never create (or truncate-repair) a file another worker owns
		}
		j, err := runstore.Open(Path(dir, experiment, i, shards))
		if err != nil {
			s.Close()
			return nil, err
		}
		s.files[i] = j
	}
	return s, nil
}

// Path returns the file path of one shard of an experiment's store.
func Path(dir, experiment string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard-%03d-of-%03d.jsonl",
		runstore.SanitizeName(experiment), shard, shards))
}

// Paths returns every shard file path of an experiment's store, in shard
// order — the argument list for runstore.Merge.
func Paths(dir, experiment string, shards int) []string {
	out := make([]string, shards)
	for i := range out {
		out[i] = Path(dir, experiment, i, shards)
	}
	return out
}

// shardOf routes a hash to its shard journal (nil when not owned).
func (s *Store) shardOf(hash string) *runstore.Journal {
	return s.files[runstore.ShardIndex(hash, s.shards)]
}

// Lookup implements runstore.Store. Units in unowned shards miss.
func (s *Store) Lookup(experiment, hash string, replicate int) (runstore.Record, bool) {
	j := s.shardOf(hash)
	if j == nil {
		return runstore.Record{}, false
	}
	return j.Lookup(experiment, hash, replicate)
}

// ReplicateCount implements runstore.Store. Cells in unowned shards
// report zero spent replicates.
func (s *Store) ReplicateCount(experiment, hash string) int {
	j := s.shardOf(hash)
	if j == nil {
		return 0
	}
	return j.ReplicateCount(experiment, hash)
}

// Scan implements runstore.Store: every shard's records streamed in
// shard order (first-appended order within a shard). The order is
// deterministic for a given store state but groups by shard, not by
// design row — runstore.Merge is the canonical-order view. Each shard's
// key set is snapshotted as the iteration reaches it, so concurrent
// appends neither block nor corrupt an in-flight scan.
func (s *Store) Scan() iter.Seq2[runstore.Record, error] {
	return func(yield func(runstore.Record, error) bool) {
		for _, j := range s.files {
			if j == nil {
				continue
			}
			for rec, err := range j.Scan() {
				if !yield(rec, err) {
					return
				}
			}
		}
	}
}

// Append implements runstore.Store, routing the record to its shard by
// assignment hash. A store that owns a single shard rejects records
// routed elsewhere: in the disjoint-worker workflow that append is a
// shard-assignment bug, and writing it would silently overlap another
// worker's file.
func (s *Store) Append(rec runstore.Record) error {
	if rec.Hash == "" {
		rec.Hash = runstore.AssignmentHash(rec.Assignment)
	}
	idx := runstore.ShardIndex(rec.Hash, s.shards)
	j := s.files[idx]
	if j == nil {
		return fmt.Errorf("shardstore: record %s routes to shard %d, but this store owns only shard %d of %d",
			rec.Key(), idx, s.owned, s.shards)
	}
	return j.Append(rec)
}

// AppendBatch implements runstore.BatchAppender: the batch is grouped by
// destination shard and lands with one fsync per shard journal touched
// (runstore.Journal.AppendBatch) instead of one per record — the
// group-commit append path. The whole batch is checked first: an invalid
// record, or one routed to an unowned shard, fails it before any byte is
// written. Each record's shard file holds it in batch order. An I/O
// failure on one shard leaves the groups already written durable (the
// same clean-prefix rule a failed streamed ingest leaves behind).
func (s *Store) AppendBatch(recs []runstore.Record) error {
	groups := make([][]runstore.Record, s.shards)
	for _, rec := range recs {
		rec, err := runstore.NormalizeAppend(rec)
		if err != nil {
			return err
		}
		idx := runstore.ShardIndex(rec.Hash, s.shards)
		if s.files[idx] == nil {
			return fmt.Errorf("shardstore: record %s routes to shard %d, but this store owns only shard %d of %d",
				rec.Key(), idx, s.owned, s.shards)
		}
		groups[idx] = append(groups[idx], rec)
	}
	for idx, group := range groups {
		if len(group) == 0 {
			continue
		}
		if err := s.files[idx].AppendBatch(group); err != nil {
			return err
		}
	}
	return nil
}

// Len returns the number of distinct units across owned shards.
func (s *Store) Len() int {
	n := 0
	for _, j := range s.files {
		if j != nil {
			n += j.Len()
		}
	}
	return n
}

// Close implements runstore.Store, closing every owned shard and
// returning the first error.
func (s *Store) Close() error {
	var first error
	for _, j := range s.files {
		if j == nil {
			continue
		}
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}
