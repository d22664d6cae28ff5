package runstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"sync"
)

// BinaryJournal is the binary-encoded counterpart of Journal: the same
// append-only last-wins store with an in-memory index, persisting
// length-prefixed checksummed frames (see binary.go / docs/FORMAT.md)
// instead of JSON lines. Append and Lookup are safe for concurrent use.
type BinaryJournal struct {
	mu sync.Mutex
	appendLog
	recs     map[string]Record
	order    []string // keys in file order, for deterministic Scan order
	appended int      // records ever indexed, including superseded ones
	torn     bool     // a torn trailing frame was truncated on open
}

// The binary journal is a full Store backend, batch side included.
var (
	_ Store         = (*BinaryJournal)(nil)
	_ BatchAppender = (*BinaryJournal)(nil)
)

// OpenBinary opens (creating if absent) the binary journal at path,
// loading every complete record. A torn trailing frame — a crash
// mid-append — is truncated; a file that is not a binary journal, or a
// checksum-valid frame that does not decode, is an error.
func OpenBinary(path string) (*BinaryJournal, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("runstore: %w", err)
		}
	}
	j := &BinaryJournal{appendLog: appendLog{path: path}, recs: make(map[string]Record)}
	data, err := os.ReadFile(path)
	if err != nil && !os.IsNotExist(err) {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	keep := int64(0)
	switch {
	case len(data) == 0:
		// New or empty file: the magic is (re)written below.
	case len(data) < binHeaderSize:
		// A crash while creating the file can leave a bare prefix of the
		// magic; anything else this short is not a binary journal.
		if !bytes.HasPrefix([]byte(BinaryMagic), data) {
			return nil, fmt.Errorf("runstore: %s: not a binary journal", path)
		}
	case string(data[:binHeaderSize]) != BinaryMagic:
		return nil, fmt.Errorf("runstore: %s: not a binary journal", path)
	default:
		k, torn, err := scanBinary(bytes.NewReader(data[binHeaderSize:]), int64(binHeaderSize), func(rec Record, _ Extent) error {
			j.index(rec)
			return nil
		})
		if err != nil {
			return nil, fmt.Errorf("runstore: %s: %w", path, err)
		}
		j.torn = torn
		keep = k
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	if keep < int64(binHeaderSize) {
		// Fresh file (or torn magic): start it over with a clean header.
		j.torn = j.torn || int64(len(data)) > keep
		if err := f.Truncate(0); err != nil {
			f.Close()
			return nil, fmt.Errorf("runstore: %w", err)
		}
		if _, err := f.WriteString(BinaryMagic); err != nil {
			f.Close()
			return nil, fmt.Errorf("runstore: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("runstore: %w", err)
		}
	} else if keep < int64(len(data)) {
		if err := f.Truncate(keep); err != nil {
			f.Close()
			return nil, fmt.Errorf("runstore: truncating torn tail: %w", err)
		}
	}
	if _, err := f.Seek(0, io.SeekEnd); err != nil {
		f.Close()
		return nil, fmt.Errorf("runstore: %w", err)
	}
	j.f = f
	return j, nil
}

// OpenBinaryDir opens the binary journal for one experiment under dir,
// creating the directory as needed. The file is
// <dir>/<sanitized-experiment>.binj.
func OpenBinaryDir(dir, experiment string) (*BinaryJournal, error) {
	if experiment == "" {
		return nil, fmt.Errorf("runstore: experiment name required")
	}
	return OpenBinary(filepath.Join(dir, SanitizeName(experiment)+BinaryExt))
}

func (j *BinaryJournal) index(rec Record) {
	k := rec.Key()
	if _, exists := j.recs[k]; !exists {
		j.order = append(j.order, k)
	}
	j.recs[k] = rec // last record wins, like a log-structured store
	j.appended++
}

// Path returns the journal's file path.
func (j *BinaryJournal) Path() string { return j.path }

// Torn reports whether a torn trailing frame was truncated when opening.
func (j *BinaryJournal) Torn() bool { return j.torn }

// Len returns the number of distinct journaled units.
func (j *BinaryJournal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Lookup returns the journaled record for a unit, if present.
func (j *BinaryJournal) Lookup(experiment, hash string, replicate int) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	rec, ok := j.recs[Key(experiment, hash, replicate)]
	return rec, ok
}

// ReplicateCount returns how many contiguous replicates (0..n-1) of one
// cell the journal holds — the warm-start budget already spent on it.
func (j *BinaryJournal) ReplicateCount(experiment, hash string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for {
		if _, ok := j.recs[Key(experiment, hash, n)]; !ok {
			return n
		}
		n++
	}
}

// Scan implements Store: all distinct records in first-appended order,
// one at a time, with the same snapshot-at-start key-set semantics as
// Journal.Scan (see the Store contract).
func (j *BinaryJournal) Scan() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		j.mu.Lock()
		keys := make([]string, len(j.order))
		copy(keys, j.order)
		j.mu.Unlock()
		for _, k := range keys {
			j.mu.Lock()
			rec := j.recs[k]
			j.mu.Unlock()
			metScanRecords.Inc()
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// Append validates, persists, and indexes one record. The frame is
// encoded into a pooled buffer and written with a single Write call
// followed by Sync, so a crash leaves at most one torn frame — exactly
// what OpenBinary recovers from. Failures poison the journal exactly as
// they do Journal's.
func (j *BinaryJournal) Append(rec Record) error {
	rec, err := NormalizeAppend(rec)
	if err != nil {
		return err
	}
	bufp := encodeBinaryFrame(rec)
	defer putBinBuf(bufp)
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.commit(*bufp, 1); err != nil {
		return err
	}
	j.index(rec)
	return nil
}

// AppendBatch implements BatchAppender under Journal.AppendBatch's
// rules: the whole batch is validated before any byte is written, its
// frames go out in one Write followed by one Sync, and a failure indexes
// nothing. The bytes equal those of the same records appended one by
// one.
func (j *BinaryJournal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	normalized, err := NormalizeBatch(recs)
	if err != nil {
		return err
	}
	bufp := binBufPool.Get().(*[]byte)
	defer putBinBuf(bufp)
	for _, rec := range normalized {
		*bufp = appendRecordFrame(*bufp, rec)
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	if err := j.commit(*bufp, len(normalized)); err != nil {
		return err
	}
	for _, rec := range normalized {
		j.index(rec)
	}
	return nil
}

// Close closes the journal file. Lookup and Scan keep working on the
// in-memory index; Append fails.
func (j *BinaryJournal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.close()
}

// binaryReader is the binary journal's SourceReader.
type binaryReader struct {
	path string
	f    *os.File
	info Info
}

func openBinaryReader(path string) (SourceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	var head [binHeaderSize]byte
	if _, err := io.ReadFull(f, head[:]); err != nil || string(head[:]) != BinaryMagic {
		f.Close()
		return nil, fmt.Errorf("runstore: %s: not a binary journal", path)
	}
	return &binaryReader{path: path, f: f}, nil
}

// Entries implements SourceReader, scanning the frames from the start.
// It may be consumed more than once; each call re-reads the file.
func (r *binaryReader) Entries() iter.Seq2[SourceEntry, error] {
	return func(yield func(SourceEntry, error) bool) {
		if _, err := r.f.Seek(int64(binHeaderSize), io.SeekStart); err != nil {
			yield(SourceEntry{}, fmt.Errorf("runstore: %w", err))
			return
		}
		records, distinct := 0, make(map[string]struct{})
		stop := fmt.Errorf("runstore: iteration stopped") // sentinel, never escapes
		_, torn, err := scanBinary(r.f, int64(binHeaderSize), func(rec Record, ext Extent) error {
			records++
			e := entryOf(rec, ext)
			distinct[e.Key()] = struct{}{}
			if !yield(e, nil) {
				return stop
			}
			return nil
		})
		if err == stop {
			return
		}
		if err != nil {
			yield(SourceEntry{}, fmt.Errorf("runstore: %s: %w", r.path, err))
			return
		}
		r.info = Info{Records: records, Distinct: len(distinct), Torn: torn, Detail: "binary frames (PEVBIN1)"}
	}
}

// Read implements SourceReader with one positioned read of the frame.
// It is safe for concurrent use (the merge write pass decodes records
// from several goroutines).
func (r *binaryReader) Read(ext Extent) (Record, error) {
	if ext.Len < int64(binFrameHeaderSize) {
		return Record{}, fmt.Errorf("runstore: %s: bad extent at byte %d", r.path, ext.Off)
	}
	raw := make([]byte, ext.Len)
	if _, err := r.f.ReadAt(raw, ext.Off); err != nil {
		return Record{}, fmt.Errorf("runstore: %s: reading record at byte %d: %w", r.path, ext.Off, err)
	}
	rec, err := decodeBinaryRecord(raw[binFrameHeaderSize:])
	if err != nil {
		return Record{}, fmt.Errorf("runstore: %s: record at byte %d: %w", r.path, ext.Off, err)
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	return rec, nil
}

// Info implements SourceReader; complete after Entries is consumed.
func (r *binaryReader) Info() Info { return r.info }

// Close implements SourceReader.
func (r *binaryReader) Close() error { return r.f.Close() }

// writeBinaryFile atomically replaces dst with the record sequence in
// binary framing — the bulk writer behind Merge and Compact when the
// destination carries the .binj extension. Encoding reuses one pooled
// buffer across the whole sequence, so the write allocates per unique
// record size class, not per record.
func writeBinaryFile(dst string, recs iter.Seq2[Record, error], modeFrom string) error {
	bufp := binBufPool.Get().(*[]byte)
	defer putBinBuf(bufp)
	return atomicWrite(dst, modeFrom, func(w *bufio.Writer) error {
		if _, err := w.WriteString(BinaryMagic); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		for rec, err := range recs {
			if err != nil {
				return err
			}
			if rec.Hash == "" {
				rec.Hash = AssignmentHash(rec.Assignment)
			}
			*bufp = appendRecordFrame((*bufp)[:0], rec)
			if _, err := w.Write(*bufp); err != nil {
				return fmt.Errorf("runstore: %w", err)
			}
		}
		return nil
	})
}

// inspectBinary reports a binary journal's shape without retaining any
// record payloads.
func inspectBinary(path string) (Info, error) {
	r, err := openBinaryReader(path)
	if err != nil {
		return Info{}, err
	}
	defer r.Close()
	for _, err := range r.Entries() {
		if err != nil {
			return Info{}, err
		}
	}
	return r.Info(), nil
}

// The binary journal registers as a Format so Merge, Compact,
// LoadRecords, ScanFile, and Inspect transparently read .binj sources
// (dispatched by content sniffing) and write .binj destinations
// (dispatched by extension) — the same seam the archive uses.
func init() {
	RegisterFormat(Format{
		Name: "binary",
		Ext:  BinaryExt,
		Sniff: func(head []byte) bool {
			return len(head) >= binHeaderSize && string(head[:binHeaderSize]) == BinaryMagic
		},
		OpenReader: openBinaryReader,
		Write:      writeBinaryFile,
		Inspect:    inspectBinary,
	})
}
