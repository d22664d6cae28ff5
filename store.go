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
// Merge destination carrying it is written as an archive and read back.
const ArchiveExt = archivestore.Ext

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

// Inspect reports the shape of the store file at path — record and
// distinct counts, torn or truncated tails, backend-specific detail —
// without opening it for writing. A directory is an error: InspectDir
// reports each store the warehouse catalog discovers under one.
func Inspect(path string) (Info, error) {
	st, err := os.Stat(path)
	if err != nil {
		return Info{}, fmt.Errorf("repro: %w", err)
	}
	if st.IsDir() {
		return Info{}, fmt.Errorf("repro: %s is a directory; InspectDir reports the stores under it", path)
	}
	return runstore.Inspect(path)
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
// warehouse catalog does — journals, binary record files, archives; hidden
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
//
// With strict set, cross-source conflicts fail the merge before anything
// is written, whatever the destination: a divergent measurement masked
// inside a long-lived baseline is the most expensive place to hide one.
// The returned stats still carry the conflicts.
//
// An archive destination (ArchiveExt, or the legacy ".archz") is read
// back before Merge returns: every record of a second streaming pass over
// the merged view must be served, identical, by the archive's index — an
// archive that cannot be read back is worse than none, because archives
// are what long-lived baselines live in. Merge into an archive that
// succeeds has so verified MergeStats.Kept lookups.
func Merge(dst string, srcs []string, strict bool) (MergeStats, error) {
	ms, err := runstore.MergeChecked(srcs, dst, strict)
	if err != nil || !strings.HasSuffix(dst, ArchiveExt) && !strings.HasSuffix(dst, archivestore.ExtZ) {
		return ms, err
	}
	if archiveWritten != nil {
		archiveWritten(dst)
	}
	return ms, readBack(dst, srcs, ms.Kept)
}

// archiveWritten, when set, runs between the write of an archive
// destination and its read-back; a test damages the file through it.
var archiveWritten func(dst string)

// readBack checks the archive at dst against the merged view of srcs it
// was written from: kept records, none torn, each one served by the
// index exactly as the merge yields it.
func readBack(dst string, srcs []string, kept int) error {
	a, err := archivestore.Open(dst)
	if err != nil {
		return fmt.Errorf("verifying %s: %w", dst, err)
	}
	defer a.Close()
	if a.Torn() {
		return fmt.Errorf("verifying %s: fresh archive reports a torn tail", dst)
	}
	if a.Len() != kept {
		return fmt.Errorf("verifying %s: archive indexes %d record(s), merge produced %d", dst, a.Len(), kept)
	}
	for want, err := range runstore.MergeScan(srcs) {
		if err != nil {
			return fmt.Errorf("verifying %s: %w", dst, err)
		}
		got, ok := a.Lookup(want.Experiment, want.Hash, want.Replicate)
		if !ok {
			return fmt.Errorf("verifying %s: record %s missing from archive index", dst, want.Key())
		}
		if !reflect.DeepEqual(got, want) {
			return fmt.Errorf("verifying %s: record %s does not round-trip: %+v != %+v", dst, want.Key(), got, want)
		}
	}
	return nil
}

// Compact rewrites the store file at src keeping only the last record
// of every key, preserving first-appended order; dst == "" compacts in
// place, otherwise src is untouched. Like Merge it streams and is
// idempotent; in place, a journal with nothing to drop is not rewritten
// at all (CompactStats.Unchanged).
func Compact(src, dst string) (CompactStats, error) {
	return runstore.Compact(src, dst)
}

// ShardPaths returns every shard file path of an experiment's sharded
// store, in shard order — the source list for Merge.
func ShardPaths(dir, experiment string, shards int) []string {
	return shardstore.Paths(dir, experiment, shards)
}
