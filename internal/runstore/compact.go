package runstore

import "iter"

// CompactStats reports what one compaction did.
type CompactStats struct {
	Kept    int // distinct records written out
	Dropped int // superseded (re-appended same-key) records removed
	Torn    bool
}

// Compact rewrites the journal at src keeping only the last-appended
// record of every (experiment, hash, replicate) key, in first-appended
// key order — exactly the view Open serves from its in-memory index, so
// warm-start, diff, and summarize behavior is unchanged while the file
// sheds every superseded record. A torn trailing line is dropped like
// Open would.
//
// Compact streams: the index pass keeps one lightweight entry per key,
// and the rewrite copies (or decodes) one record at a time, so peak
// memory never holds the record set — run it on journals of any size.
//
// The rewrite is atomic: records go to a temporary file in the target
// directory which is fsynced and renamed into place. dst == "" compacts
// in place; otherwise src is left untouched and the compacted journal is
// written to dst. Compaction is idempotent — compacting a compacted
// journal is a byte-identical no-op. Compact preserves append order;
// use Merge to rewrite a journal in canonical cross-writer order.
//
// Like Merge, Compact dispatches on format: a registered-format archive
// source is loaded through its own reader (never misparsed as JSONL),
// and a destination carrying a registered extension is written in that
// format — so compacting an archive in place keeps it an archive.
func Compact(src, dst string) (CompactStats, error) {
	var cs CompactStats
	srcFormat := formatOf(src)
	r, err := OpenSource(src)
	if err != nil {
		return cs, err
	}
	defer r.Close()
	idx, order, records, err := indexEntries(r)
	if err != nil {
		return cs, err
	}
	cs.Kept = len(order)
	cs.Dropped = records - len(order)
	cs.Torn = r.Info().Torn

	if dst == "" {
		dst = src
	}
	formatWrite := formatForDst(dst)
	if formatWrite == &journalFormat && dst == src {
		// A renamed archive compacted in place stays an archive: the
		// sniffed source format wins over the (absent) extension.
		formatWrite = srcFormat
	}
	seq := func(yield func(Record, error) bool) {
		for _, k := range order {
			rec, err := r.Read(idx[k].Ext)
			if !yield(rec, err) {
				return
			}
			if err != nil {
				return
			}
		}
	}
	if err := formatWrite.Write(dst, iter.Seq2[Record, error](seq), src); err != nil {
		return cs, err
	}
	metCompactRecords.Add(int64(cs.Kept))
	return cs, nil
}
