package repro

import (
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/runstore/shardstore"
	"repro/internal/warehouse"
)

// Record is one stored execution unit: the responses measured for one
// replicate of one design row of one experiment.
type Record = runstore.Record

// Info summarizes one store file's shape without opening it for
// writing.
type Info = runstore.Info

// MergeStats reports what one Merge did.
type MergeStats = runstore.MergeStats

// Conflict is one key whose stored measurements disagree across merge
// sources.
type Conflict = runstore.Conflict

// CompactStats reports what one Compact did.
type CompactStats = runstore.CompactStats

// ArchiveExt is the file extension of block-indexed archive files; a
// Merge or Convert destination carrying it is written as an archive.
const ArchiveExt = archivestore.Ext

// ArchiveExtZ is accepted wherever ArchiveExt is, as a destination that
// writes the same archive (docs/FORMAT.md §8): it once selected binary
// record blocks, which every archive now has. Readers need no hint
// either way: the file's magic names its format and version.
const ArchiveExtZ = archivestore.ExtZ

// Store is a read-only, format-sniffing view of one store file — a
// JSONL journal or a block-indexed archive, dispatched by content, so
// renamed files keep working. It never creates, repairs, or truncates
// the file; a torn trailing frame is reported via Info and skipped by
// Scan exactly as a read-write open would drop it.
type Store struct {
	path string
	info Info
}

// Open opens the store file at path read-only. The file's shape is
// probed up front, so a missing, corrupt, or misframed file fails here
// rather than mid-iteration.
func Open(path string) (*Store, error) {
	info, err := runstore.Inspect(path)
	if err != nil {
		return nil, err
	}
	return &Store{path: path, info: info}, nil
}

// Path returns the file the store reads.
func (s *Store) Path() string { return s.path }

// Info reports the file's shape as probed by Open.
func (s *Store) Info() Info { return s.info }

// Scan streams the file's distinct last-wins records in its
// deterministic first-appended order without materializing the record
// set — the iteration contract is documented in docs/FORMAT.md. Errors
// surface in the sequence and stop it.
func (s *Store) Scan() iter.Seq2[Record, error] {
	return runstore.ScanFile(s.path)
}

// Collect materializes a record sequence into a slice, stopping at the
// first error.
func Collect(seq iter.Seq2[Record, error]) ([]Record, error) {
	return runstore.Collect(seq)
}

// Inspect reports the shape of the store at path — record and distinct
// counts, torn or truncated tails, backend-specific detail — without
// opening it for writing. A directory is inspected as the warehouse
// catalog would see it: every discovered store file contributes to the
// aggregate counts, and Detail reports how many stores were found (use
// InspectDir for the per-store breakdown).
func Inspect(path string) (Info, error) {
	st, err := os.Stat(path)
	if err != nil {
		return Info{}, fmt.Errorf("repro: %w", err)
	}
	if !st.IsDir() {
		return runstore.Inspect(path)
	}
	stores, err := InspectDir(path)
	if err != nil {
		return Info{}, err
	}
	var agg Info
	for _, s := range stores {
		agg.Records += s.Info.Records
		agg.Distinct += s.Info.Distinct
		if s.Info.Torn {
			agg.Torn = true
		}
	}
	agg.Detail = fmt.Sprintf("directory: %d store(s)", len(stores))
	return agg, nil
}

// StoreStatus is one discovered store in a directory inspection: its
// slash path relative to the inspected directory and its shape.
type StoreStatus struct {
	// Path is the store file's slash-separated path relative to the
	// inspected directory.
	Path string
	// Info is the store's shape, as Inspect on the file reports it.
	Info Info
}

// InspectDir discovers every store file under dir exactly as the
// warehouse catalog does — journals, binary journals, archives; hidden
// files, the warehouse index, and the collector's control-state journal
// skipped — and reports each store's shape, sorted by path.
func InspectDir(dir string) ([]StoreStatus, error) {
	rels, err := warehouse.Discover(dir)
	if err != nil {
		return nil, err
	}
	out := make([]StoreStatus, 0, len(rels))
	for _, rel := range rels {
		info, err := runstore.Inspect(filepath.Join(dir, filepath.FromSlash(rel)))
		if err != nil {
			return nil, fmt.Errorf("repro: inspecting %s: %w", rel, err)
		}
		out = append(out, StoreStatus{Path: rel, Info: info})
	}
	return out, nil
}

// Merge folds the store files at srcs into dst: last-wins per
// (experiment, assignment, replicate) key, cross-source disagreements
// reported as Conflicts, output in canonical order, written atomically.
// Sources are dispatched by content sniffing and the destination by
// extension, so journals and archives mix freely. The merge streams —
// peak memory holds an entry index, never the record set.
func Merge(dst string, srcs ...string) (MergeStats, error) {
	return runstore.Merge(srcs, dst)
}

// Compact rewrites the store file at src keeping only the last record
// of every key, preserving first-appended order; dst == "" compacts in
// place, otherwise src is untouched. Like Merge it streams and is
// idempotent; in place, a journal with nothing to drop is not rewritten
// at all (CompactStats.Unchanged).
func Compact(src, dst string) (CompactStats, error) {
	return runstore.Compact(src, dst)
}

// ConvertStats reports what one Convert did: the merge it performed,
// plus the verification of the written archive.
type ConvertStats struct {
	MergeStats
	// Verified is how many merged records were read back from the
	// archive's index and matched the merge output exactly.
	Verified int
	// Detail is the finished archive's shape line (block and index page
	// counts, footer state).
	Detail string
}

// Convert merges the store files at srcs into a finalized block-indexed
// archive at dst (which must end in ArchiveExt or ArchiveExtZ) and
// verifies the
// artifact: every record of a second streaming pass over the merged
// view must be served back, identical, by the archive's index — a
// conversion that cannot be read back is worse than no conversion,
// because archives are what long-lived baselines live in.
//
// With strict set, cross-source conflicts abort the conversion before
// anything is written: a divergent measurement masked inside a
// long-lived baseline is the most expensive place to hide one.
func Convert(dst string, srcs []string, strict bool) (ConvertStats, error) {
	var cs ConvertStats
	if !strings.HasSuffix(dst, ArchiveExt) && !strings.HasSuffix(dst, ArchiveExtZ) {
		return cs, fmt.Errorf("archive destination %q must end in %s or %s", dst, ArchiveExt, ArchiveExtZ)
	}
	ms, err := runstore.MergeChecked(srcs, dst, strict)
	cs.MergeStats = ms
	if err != nil {
		return cs, err
	}
	a, err := archivestore.Open(dst)
	if err != nil {
		return cs, fmt.Errorf("verifying %s: %w", dst, err)
	}
	defer a.Close()
	if a.Torn() {
		return cs, fmt.Errorf("verifying %s: fresh archive reports a torn tail", dst)
	}
	if a.Len() != ms.Kept {
		return cs, fmt.Errorf("verifying %s: archive indexes %d record(s), merge produced %d", dst, a.Len(), ms.Kept)
	}
	for want, err := range runstore.MergeScan(srcs) {
		if err != nil {
			return cs, fmt.Errorf("verifying %s: %w", dst, err)
		}
		got, ok := a.Lookup(want.Experiment, want.Hash, want.Replicate)
		if !ok {
			return cs, fmt.Errorf("verifying %s: record %s missing from archive index", dst, want.Key())
		}
		if !reflect.DeepEqual(got, want) {
			return cs, fmt.Errorf("verifying %s: record %s does not round-trip: %+v != %+v", dst, want.Key(), got, want)
		}
		cs.Verified++
	}
	cs.Detail = a.Info().Detail
	return cs, nil
}

// ShardPath returns the file path of one shard of an experiment's
// sharded store under dir — where a worker running shard `shard` of
// `shards` journals its completed units.
func ShardPath(dir, experiment string, shard, shards int) string {
	return shardstore.Path(dir, experiment, shard, shards)
}

// ShardPaths returns every shard file path of an experiment's sharded
// store, in shard order — the source list for Merge.
func ShardPaths(dir, experiment string, shards int) []string {
	return shardstore.Paths(dir, experiment, shards)
}
