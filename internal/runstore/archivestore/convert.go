package archivestore

import (
	"bufio"
	"fmt"
	"iter"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// init plugs the archive format into the runstore journal tooling:
// Merge writes an archive when the destination ends in Ext or ExtZ, and
// LoadRecords / ScanFile / Inspect / Merge sources dispatch on the file
// magic — any version's — through the streaming reader, whose Info
// reports the block and index shape runstore.Inspect prints as Detail.
// Any program importing this package gets the behavior; the scheduler
// does not need to.
func init() {
	archive := runstore.Format{
		Name:       "archive",
		Ext:        Ext,
		Sniff:      func(head []byte) bool { return versionOf(head) != 0 },
		OpenReader: OpenReader,
		Write:      Write,
	}
	runstore.RegisterFormat(archive)
	// The same writer behind the other extension; as a source every
	// archive sniffs (and reads) as "archive" above, whatever its name.
	archive.Ext = ExtZ
	archive.Sniff = func([]byte) bool { return false }
	runstore.RegisterFormat(archive)
}

// Write atomically replaces dst with a finalized archive holding the
// records of recs in sequence order, through framelog.AtomicWrite — the
// bulk build path behind archive-destination merges and compactions. Its bytes are the ones a live Archive writes for the same
// records (Open, Append each, Close): the two share layout. The sequence
// is consumed incrementally (one record encoded at a time, never a
// materialized slice), and unlike Archive.Append it buffers and syncs
// once, so converting a 10^5-record journal costs one write pass, not
// 10^5 fsyncs. A yielded error aborts the write and leaves dst
// untouched. The file mode is copied from modeFrom when that file
// exists, 0644 otherwise.
func Write(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string) error {
	return framelog.AtomicWrite(dst, modeFrom, func(w *bufio.Writer) error {
		l := layout{end: int64(len(Magic))}
		buf := []byte(Magic) // reused for every record
		for rec, err := range recs {
			if err != nil {
				return err
			}
			// Fill a missing hash so the stored key matches what Lookup
			// computes — but otherwise write records verbatim: bulk Write is
			// a format conversion, and re-validating (or re-keying) here
			// would make an archive disagree with the journal it came from.
			if rec.Hash == "" {
				rec.Hash = runstore.AssignmentHash(rec.Assignment)
			}
			if buf, _, err = l.appendRecord(buf, rec, DefaultIndexInterval); err != nil {
				return err
			}
			if _, err := w.Write(buf); err != nil {
				return fmt.Errorf("archivestore: %w", err)
			}
			buf = buf[:0]
		}
		if _, err := w.Write(l.appendFinish(buf)); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
		return nil
	})
}
