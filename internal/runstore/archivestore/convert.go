package archivestore

import (
	"bufio"
	"fmt"
	"iter"
	"os"
	"path/filepath"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// init plugs the archive format into the runstore journal tooling:
// Merge writes an archive when the destination ends in Ext, and
// LoadRecords / ScanFile / Inspect / Merge sources dispatch on the file
// magic — either version's — through the streaming reader. Any program
// importing this package gets the behavior; the scheduler does not need
// to.
func init() {
	runstore.RegisterFormat(runstore.Format{
		Name:       "archive",
		Ext:        Ext,
		Sniff:      func(head []byte) bool { return versionOf(head) != 0 },
		OpenReader: OpenReader,
		Write:      Write,
		Inspect:    Inspect,
	})
	// The binary variant is destination-only: a .archz file has the same
	// block framing and index, so as a source it sniffs (and reads) as
	// "archive" above. Registering the extension routes Merge and Compact
	// destinations ending in .archz through the binary bulk writer.
	runstore.RegisterFormat(runstore.Format{
		Name:       "archivez",
		Ext:        ExtZ,
		Sniff:      func(head []byte) bool { return false },
		OpenReader: OpenReader,
		Write:      WriteCompressed,
		Inspect:    Inspect,
	})
}

// Write atomically replaces dst with a finalized archive holding the
// records of recs in sequence order: temp file in the target directory,
// one fsync, rename, directory fsync — the bulk build path behind
// `perfeval archive` and archive-destination merges. The sequence is consumed incrementally
// (one record encoded at a time, never a materialized slice), and
// unlike Archive.Append it buffers and syncs once, so converting a
// 10^5-record journal costs one write pass, not 10^5 fsyncs. A yielded
// error aborts the write and leaves dst untouched. The file mode is
// copied from modeFrom when that file exists, 0644 otherwise. The file is
// a version-1 archive, its record blocks JSON: what a live Archive
// writes.
func Write(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string) error {
	return writeVersion(dst, recs, modeFrom, 1)
}

// WriteCompressed is Write into a version-2 archive, every record block
// the binary codec's payload of one record — the bulk build path behind
// .archz merge destinations: the smaller file, and the cheaper one to
// read and to write (no JSON document in it anywhere). The name predates
// version 2, when the blocks were DEFLATE-compressed JSON.
func WriteCompressed(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string) error {
	return writeVersion(dst, recs, modeFrom, 2)
}

// writeVersion is the shared bulk writer behind Write and WriteCompressed:
// an archive of the given version, its record blocks that version's
// (appendRecordPayload).
func writeVersion(dst string, recs iter.Seq2[runstore.Record, error], modeFrom string, version int) error {
	if dir := filepath.Dir(dst); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
	}
	tmp, err := os.CreateTemp(filepath.Dir(dst), filepath.Base(dst)+".rewrite-*")
	if err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	mode := os.FileMode(0o644)
	if fi, err := os.Stat(modeFrom); err == nil {
		mode = fi.Mode().Perm()
	}
	if err := tmp.Chmod(mode); err != nil {
		tmp.Close()
		return fmt.Errorf("archivestore: %w", err)
	}
	fail := func(err error) error {
		tmp.Close()
		return err
	}
	bw := bufio.NewWriterSize(tmp, 256<<10)
	if _, err := bw.WriteString(versions[version].magic); err != nil {
		return fail(fmt.Errorf("archivestore: %w", err))
	}
	off := int64(headerSize)
	written := 0
	var pending []pendingEntry
	var pages []int64
	var payload, block []byte // reused for every record
	flushPage := func() error {
		if len(pending) == 0 {
			return nil
		}
		block := appendBlock(nil, blockIndex, encodeIndexPayload(pending))
		if _, err := bw.Write(block); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
		pages = append(pages, off)
		off += int64(len(block))
		pending = pending[:0]
		return nil
	}
	for rec, rerr := range recs {
		if rerr != nil {
			return fail(rerr)
		}
		// Fill a missing hash so the stored key matches what Lookup
		// computes — but otherwise write records verbatim: bulk Write is
		// a format conversion, and re-validating (or re-keying) here
		// would make an archive disagree with the journal it came from.
		if rec.Hash == "" {
			rec.Hash = runstore.AssignmentHash(rec.Assignment)
		}
		typ, out, err := appendRecordPayload(payload[:0], version, rec)
		if err != nil {
			return fail(err)
		}
		payload = out
		block = appendBlock(block[:0], typ, payload)
		if _, err := bw.Write(block); err != nil {
			return fail(fmt.Errorf("archivestore: %w", err))
		}
		pending = append(pending, pendingEntry{
			exp: rec.Experiment, hash: rec.Hash, rep: rec.Replicate,
			entry: entry{off: off, n: int32(len(block))},
		})
		off += int64(len(block))
		written++
		if len(pending) >= DefaultIndexInterval {
			if err := flushPage(); err != nil {
				return fail(err)
			}
		}
	}
	if err := flushPage(); err != nil {
		return fail(err)
	}
	tail := appendBlock(nil, blockFooter, encodeFooterPayload(written, pages))
	tail = append(tail, encodeTrailer(off, version)...)
	if _, err := bw.Write(tail); err != nil {
		return fail(fmt.Errorf("archivestore: %w", err))
	}
	if err := bw.Flush(); err != nil {
		return fail(fmt.Errorf("archivestore: %w", err))
	}
	if err := tmp.Sync(); err != nil {
		return fail(fmt.Errorf("archivestore: %w", err))
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	if err := os.Rename(tmp.Name(), dst); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	if err := framelog.SyncDir(filepath.Dir(dst)); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	return nil
}

// Load reads every record from an archive file read-only — the file is
// never created, repaired, or truncated — returning the distinct
// last-wins records in first-appended order plus the Info shape, from
// one walk of the block sequence. It is the materializing convenience
// over the streaming reader; range over runstore.ScanFile to avoid the
// slice.
func Load(path string) ([]runstore.Record, runstore.Info, error) {
	r, err := OpenReader(path)
	if err != nil {
		return nil, runstore.Info{}, err
	}
	defer r.Close()
	idx := make(map[string]runstore.Extent)
	var order []string
	for e, eerr := range r.Entries() {
		if eerr != nil {
			return nil, runstore.Info{}, eerr
		}
		k := e.Key()
		if _, seen := idx[k]; !seen {
			order = append(order, k)
		}
		idx[k] = e.Ext
	}
	out := make([]runstore.Record, 0, len(order))
	for _, k := range order {
		rec, err := r.Read(idx[k])
		if err != nil {
			return nil, runstore.Info{}, err
		}
		out = append(out, rec)
	}
	info := r.Info()
	info.Distinct = len(order)
	return out, info, nil
}

// Inspect reports an archive file's shape — block and index page counts,
// footer state, and any torn or unfinalized tail — through the same
// streaming walk every other reader uses. It backs runstore.Inspect for
// archive files.
func Inspect(path string) (runstore.Info, error) {
	r, err := OpenReader(path)
	if err != nil {
		return runstore.Info{}, err
	}
	defer r.Close()
	return runstore.InspectSource(r)
}
