package runstore

import "runtime"

// CompactStats reports what one compaction did.
type CompactStats struct {
	Kept    int // distinct records the compacted journal holds
	Dropped int // superseded (re-appended same-key) records removed
	Torn    bool
	// Unchanged: an in-place compaction found the file already compact
	// and did not rewrite it.
	Unchanged bool
}

// Compact rewrites the journal at src keeping only the last-appended
// record of every (experiment, hash, replicate) key, in first-appended
// key order — exactly the view Open serves from its in-memory index, so
// warm-start, diff, and summarize behavior is unchanged while the file
// sheds every superseded record. A torn trailing line is dropped like
// Open would.
//
// Compact streams: the index pass is Merge's over one source — a
// line-framed journal read in sections on up to GOMAXPROCS goroutines,
// a cell's identity read once per run of its replicates, then folded per
// cell to one lightweight entry per key, the winners in first-appended
// order, which the rewrite is handed as they are — and the
// rewrite copies (or, where the stored frame is not what the
// destination's codec would write, decodes and re-encodes) one record at
// a time, so peak memory never holds the record set — run it on journals
// of any size.
//
// The rewrite is atomic: records go to a temporary file in the target
// directory which is fsynced and renamed into place. dst == "" compacts
// in place; otherwise src is left untouched and the compacted journal is
// written to dst. Compaction is idempotent, and in place the second one
// costs a read: when the index pass finds nothing superseded, no torn
// tail, every frame canonical and the frames tiling the file exactly,
// the rewrite would reproduce the file, so it is skipped — the file, its
// inode and its mtime stay as they are (CompactStats.Unchanged). Compact
// preserves append order; use Merge to rewrite a journal in canonical
// cross-writer order.
//
// Like Merge, Compact dispatches on format: a registered-format archive
// source is loaded through its own reader (never misparsed as JSONL),
// and a destination carrying a registered extension is written in that
// format — so compacting an archive in place keeps it an archive.
func Compact(src, dst string) (CompactStats, error) {
	var cs CompactStats
	srcFormat := formatOf(src)
	r, err := srcFormat.OpenReader(src)
	if err != nil {
		return cs, err
	}
	plan := &mergePlan{sources: []*mergeSource{newMergeSource(r)}}
	defer plan.Close()
	if err := plan.scan(runtime.GOMAXPROCS(0)); err != nil {
		return cs, err
	}
	ms := plan.fold([]string{src})
	cs.Kept, cs.Dropped, cs.Torn = ms.Kept, ms.Superseded, ms.TornSources > 0

	if dst == "" {
		dst = src
	}
	formatWrite := formatForDst(dst)
	if formatWrite == &journalFormat && dst == src {
		// A renamed archive compacted in place stays an archive: the
		// sniffed source format wins over the (absent) extension.
		formatWrite = srcFormat
	}
	s := plan.sources[0]
	if dst == src && cs.Dropped == 0 && s.fs != nil && s.fs.canonical && s.fs.c == codecOf(formatWrite) {
		cs.Unchanged = true
		metCompactSkipped.Inc()
		return cs, nil
	}
	if err := plan.write(dst, formatWrite, src); err != nil {
		return cs, err
	}
	metCompactRecords.Add(int64(cs.Kept))
	return cs, nil
}
