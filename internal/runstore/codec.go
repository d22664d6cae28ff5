package runstore

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"iter"
	"os"
	"sync"

	"repro/internal/framelog"
)

// codec is one record encoding, at rest and on the wire: a framelog
// framing plus the payload encoder and decoder that go inside it. There
// are two — JSON lines and checksummed binary frames — and everything
// that touches record bytes (Journal, the streaming reader, the bulk
// writer behind Merge and Compact, the wire encoders and decoders) is
// written once against this type, which is what makes "wire bytes ==
// at-rest bytes" and "bulk writer == Append" true by construction.
type codec struct {
	name    string // Format.Name
	ext     string // file extension, with dot
	detail  string // Info.Detail of a file in this encoding
	what    string // names one record in corruption errors
	framing framelog.Framing
	// appendRecord appends rec's payload to dst. The encoding is
	// deterministic: equal records encode to equal bytes, which the
	// merge byte-identity property rests on.
	appendRecord func(dst []byte, rec Record) ([]byte, error)
	// decode parses one payload exactly as stored: a missing hash is
	// left for the caller to derive.
	decode func(payload []byte) (Record, error)
}

var jsonCodec = &codec{
	name:         "journal",
	ext:          ".jsonl",
	what:         "journal line",
	framing:      framelog.Lines,
	appendRecord: AppendJSON,
	decode:       DecodeJSON,
}

var binaryCodec = &codec{
	name:    "binary",
	ext:     BinaryExt,
	detail:  "binary frames (PEVBIN1)",
	what:    "binary record",
	framing: framelog.Frames("binary journal", BinaryMagic, maxBinaryPayload),
	appendRecord: func(dst []byte, rec Record) ([]byte, error) {
		return appendBinaryRecord(dst, rec), nil
	},
	decode: decodeBinaryRecord,
}

// frameBufPool recycles encode scratch buffers on the append/encode hot
// path — Append, AppendBatch, the wire encoders, and the bulk writer all
// borrow from it, in either encoding, so steady-state framing allocates
// nothing per record.
var frameBufPool = sync.Pool{
	New: func() any {
		b := make([]byte, 0, 4<<10)
		return &b
	},
}

// putFrameBuf returns an encode buffer to the pool. Oversized buffers
// (one huge record or batch) are dropped rather than pinned in the pool.
func putFrameBuf(bufp *[]byte) {
	if cap(*bufp) > 1<<20 {
		return
	}
	*bufp = (*bufp)[:0]
	frameBufPool.Put(bufp)
}

// appendFrame appends rec's complete at-rest and on-wire encoding —
// framing and payload — to dst. On error dst is returned unextended.
func (c *codec) appendFrame(dst []byte, rec Record) ([]byte, error) {
	start := len(dst)
	out, err := c.appendRecord(c.framing.Reserve(dst), rec)
	if err != nil {
		return dst, err
	}
	return c.framing.Seal(out, start), nil
}

// visit adapts fn to a framelog scan: each payload is decoded and handed
// over with its extent; one that does not decode is marked corrupt, for
// framelog's recovery rule to judge.
func (c *codec) visit(fn func(Record, Extent) error) framelog.Visit {
	return func(payload []byte, off, n int64) error {
		rec, err := c.decode(payload)
		if err != nil {
			return framelog.Corrupt(fmt.Errorf("corrupt %s at byte %d: %v", c.what, off, err))
		}
		return fn(rec, Extent{Off: off, Len: n})
	}
}

// format is the codec's entry in the format registry.
func (c *codec) format() Format {
	return Format{
		Name:       c.name,
		Ext:        c.ext,
		Sniff:      func(head []byte) bool { return bytes.HasPrefix(head, []byte(c.framing.Magic())) },
		OpenReader: c.openReader,
		Write:      c.writeFile,
		Inspect:    c.inspect,
	}
}

// journalFormat is the JSONL journal's Format: the default every
// dispatch falls back to (it has no magic, so it "sniffs" anything and
// is consulted last).
var journalFormat = jsonCodec.format()

// The binary journal registers as a Format so Merge, Compact,
// LoadRecords, ScanFile, and Inspect transparently read .binj sources
// (dispatched by content sniffing) and write .binj destinations
// (dispatched by extension) — the same seam the archive uses.
func init() { RegisterFormat(binaryCodec.format()) }

// fileSource is the SourceReader of a journal file in either encoding.
type fileSource struct {
	path string
	f    *os.File
	c    *codec
	info Info
}

func (c *codec) openReader(path string) (SourceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &fileSource{path: path, f: f, c: c}, nil
}

// Entries implements SourceReader, scanning the file from the start.
// It may be consumed more than once; each call re-reads the file.
func (r *fileSource) Entries() iter.Seq2[SourceEntry, error] {
	return func(yield func(SourceEntry, error) bool) {
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			yield(SourceEntry{}, fmt.Errorf("runstore: %w", err))
			return
		}
		records, distinct := 0, make(map[string]struct{})
		stop := fmt.Errorf("runstore: iteration stopped") // sentinel, never escapes
		_, torn, err := r.c.framing.ScanFile(r.f, r.c.visit(func(rec Record, ext Extent) error {
			// Canonicalize before indexing: a hand-written record with no
			// hash must key (and dedupe) as the hash Append would derive.
			if rec.Hash == "" {
				rec.Hash = AssignmentHash(rec.Assignment)
			}
			records++
			e := entryOf(rec, ext)
			distinct[e.Key()] = struct{}{}
			if !yield(e, nil) {
				return stop
			}
			return nil
		}))
		if err == stop {
			return
		}
		if err != nil {
			yield(SourceEntry{}, fmt.Errorf("runstore: %s: %w", r.path, err))
			return
		}
		r.info = Info{Records: records, Distinct: len(distinct), Torn: torn, Detail: r.c.detail}
	}
}

// Read implements SourceReader with one positioned read of the record.
// It is safe for concurrent use (the merge write pass decodes records
// from several goroutines).
func (r *fileSource) Read(ext Extent) (Record, error) {
	raw := make([]byte, ext.Len)
	if _, err := r.f.ReadAt(raw, ext.Off); err != nil {
		return Record{}, fmt.Errorf("runstore: %s: reading record at byte %d: %w", r.path, ext.Off, err)
	}
	payload := r.c.framing.Payload(raw)
	if payload == nil {
		return Record{}, fmt.Errorf("runstore: %s: bad extent at byte %d", r.path, ext.Off)
	}
	rec, err := r.c.decode(payload)
	if err != nil {
		return Record{}, fmt.Errorf("runstore: %s: record at byte %d: %w", r.path, ext.Off, err)
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	return rec, nil
}

// Info implements SourceReader; complete after Entries is consumed.
func (r *fileSource) Info() Info { return r.info }

// Close implements SourceReader.
func (r *fileSource) Close() error { return r.f.Close() }

// inspect reports a journal file's shape without retaining any record
// payloads.
func (c *codec) inspect(path string) (Info, error) {
	r, err := c.openReader(path)
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

// writeFile atomically replaces dst with the record sequence in this
// encoding — the bulk writer behind Merge and Compact. Every record is
// decoded by its source and re-encoded here, never copied verbatim, so
// non-canonical source encodings (hand-edited lines, archive payloads)
// normalize on the way through; one pooled buffer serves the whole
// sequence. The bytes are those Append would have written.
func (c *codec) writeFile(dst string, recs iter.Seq2[Record, error], modeFrom string) error {
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	return atomicWrite(dst, modeFrom, func(w *bufio.Writer) error {
		if _, err := w.WriteString(c.framing.Magic()); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		for rec, err := range recs {
			if err != nil {
				return err
			}
			if rec.Hash == "" {
				rec.Hash = AssignmentHash(rec.Assignment)
			}
			if *bufp, err = c.appendFrame((*bufp)[:0], rec); err != nil {
				return err
			}
			if _, err := w.Write(*bufp); err != nil {
				return fmt.Errorf("runstore: %w", err)
			}
		}
		return nil
	})
}

// encodeWire writes one record to w in the codec's framing: the exact
// bytes Journal.Append would persist. The record is validated and
// canonicalized (NormalizeAppend) first so a wire stream can never carry
// a record a store would refuse to append.
func (c *codec) encodeWire(w io.Writer, rec Record) error {
	rec, err := NormalizeAppend(rec)
	if err != nil {
		return err
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	if *bufp, err = c.appendFrame(*bufp, rec); err != nil {
		return err
	}
	if _, err := w.Write(*bufp); err != nil {
		return fmt.Errorf("runstore: %w", err)
	}
	return nil
}

// decodeWire reads a wire stream — the file's records without its magic
// — from r, calling fn with each decoded, canonicalized record in stream
// order, and returns how many records fn accepted. A record fn rejects
// stops the stream with fn's error. Unlike a journal open, a torn
// trailing record is an error: on the wire it means the sender was cut
// off mid-record, and accepting the valid prefix would let a partial
// upload masquerade as a complete one.
func (c *codec) decodeWire(r io.Reader, fn func(Record) error) (int, error) {
	n := 0
	_, torn, err := c.framing.Scan(r, 0, c.visit(func(rec Record, _ Extent) error {
		rec, err := NormalizeAppend(rec)
		if err != nil {
			return err
		}
		if err := fn(rec); err != nil {
			return err
		}
		n++
		return nil
	}))
	if err != nil {
		return n, err
	}
	if torn {
		return n, fmt.Errorf("runstore: wire stream truncated mid-record after %d record(s)", n)
	}
	return n, nil
}
