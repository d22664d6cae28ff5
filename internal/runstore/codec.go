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
	name     string // Format.Name
	ext      string // file extension, with dot
	detail   string // Info.Detail of a file in this encoding
	what     string // names one record in corruption errors
	wireType string // media type of a wire stream in this encoding
	framing  framelog.Framing
	// appendRecord appends rec's payload to dst. The encoding is
	// deterministic: equal records encode to equal bytes, which the
	// merge byte-identity property rests on.
	appendRecord func(dst []byte, rec Record) ([]byte, error)
	// decode parses one payload exactly as stored: a missing hash is
	// left for the caller to derive.
	decode func(payload []byte) (Record, error)
	// walk is the codec's one walk of the record grammar: it fills f from
	// a payload it recognises — with canonical set, only from one that is
	// byte for byte what appendRecord writes for the record it holds —
	// building no record. False says nothing about the payload; decode
	// does. entry, fields and (in its own codec file) decode are its
	// projections.
	walk func(payload []byte, f *Fields, canonical bool) bool
}

var jsonCodec = &codec{
	name:         "journal",
	ext:          ".jsonl",
	what:         "journal line",
	wireType:     WireJSONType,
	framing:      framelog.Lines,
	appendRecord: AppendJSON,
	decode:       DecodeJSON,
	walk:         walkJSON,
}

var binaryCodec = &codec{
	name:     "binary",
	ext:      BinaryExt,
	detail:   "binary frames (PEVBIN1)",
	what:     "binary record",
	wireType: WireBinaryType,
	framing:  framelog.Frames("binary journal", BinaryMagic, maxBinaryPayload),
	appendRecord: func(dst []byte, rec Record) ([]byte, error) {
		return AppendBinary(dst, rec), nil
	},
	decode: decodeBinaryRecord,
	// A record has one binary spelling, so there is no recognised payload
	// that is not canonical.
	walk: func(payload []byte, f *Fields, _ bool) bool {
		canonical, err := walkBinary(payload, f)
		return canonical && err == nil
	},
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

// entry is the entry scan every index pass runs on: the index entry of
// one stored payload (extent left for the caller) and, in it, the
// canonical verdict — true only when encoding the decoded record again
// reproduces the payload byte for byte, which is what lets a rewrite copy
// the frame. A payload the codec's walk recognises as canonical costs no
// record; any other is decoded as Read would (a missing hash derived) and
// judged by re-encoding it and comparing. f is the pass's scratch.
func (c *codec) entry(payload []byte, f *Fields) (SourceEntry, error) {
	if c.walk(payload, f, true) {
		e := f.Entry()
		e.canonical = true
		return e, nil
	}
	rec, err := c.read(payload)
	if err != nil {
		return SourceEntry{}, err
	}
	e := entryOf(rec)
	if again, err := c.appendRecord(f.buf[:0], rec); err == nil {
		f.buf = again
		e.canonical = bytes.Equal(again, payload)
	}
	return e, nil
}

// fields is the field pass over one stored payload: f filled with the
// record Read would return for it (a missing hash derived). A payload the
// codec's walk recognises costs no record; any other is decoded and
// flattened.
func (c *codec) fields(payload []byte, f *Fields) error {
	if c.walk(payload, f, false) {
		return nil
	}
	rec, err := c.read(payload)
	if err != nil {
		return err
	}
	f.flatten(rec)
	return nil
}

// read decodes one payload as Read returns it: a missing hash derived.
func (c *codec) read(payload []byte) (Record, error) {
	rec, err := c.decode(payload)
	if err == nil && rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	return rec, err
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

// readAhead is how much of a source one positioned read of a rewrite's
// write pass fetches: winners are read in (nearly) file order, so one
// read serves a few hundred records, and a source costs this much memory
// however large it is.
const readAhead = 64 << 10

// fileSource is the SourceReader of a journal file in either encoding.
type fileSource struct {
	path string
	f    *os.File
	c    *codec
	info Info
	// canonical: the last complete Entries pass found every frame
	// canonical, no torn tail, and the frames tiling the file exactly —
	// no blank line, no unterminated last line. Rewriting such a file's
	// records in file order reproduces it.
	canonical bool
	// ahead is the write pass's read-ahead window, the file's bytes from
	// aheadOff on (raw).
	ahead    []byte
	aheadOff int64
}

func (c *codec) openReader(path string) (SourceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	return &fileSource{path: path, f: f, c: c}, nil
}

// scanSource is the one forward pass over a journal file, behind both
// Entries and Fields: from the start, through framelog's buffered scan,
// each payload turned into one item of the sequence — with its extent
// and, where the caller knows it, the canonical verdict of its frame. It
// may be consumed more than once; each pass re-reads the file and leaves
// the reader's Info behind.
func scanSource[T any](r *fileSource, item func(payload []byte, ext Extent) (T, bool, error)) iter.Seq2[T, error] {
	return func(yield func(T, error) bool) {
		var zero T
		if _, err := r.f.Seek(0, io.SeekStart); err != nil {
			yield(zero, fmt.Errorf("runstore: %w", err))
			return
		}
		records, canonical := 0, true
		tiled := int64(len(r.c.framing.Magic()))
		terminator := int64(len(r.c.framing.Terminator()))
		_, torn, err := r.c.framing.ScanFile(r.f, func(payload []byte, off, n int64) error {
			it, canon, err := item(payload, Extent{Off: off, Len: n})
			if err != nil {
				return framelog.Corrupt(fmt.Errorf("corrupt %s at byte %d: %v", r.c.what, off, err))
			}
			records++
			canonical = canonical && canon
			tiled += n + terminator
			if !yield(it, nil) {
				return errStop
			}
			return nil
		})
		if err == errStop {
			return
		}
		if err != nil {
			yield(zero, fmt.Errorf("runstore: %s: %w", r.path, err))
			return
		}
		r.info = Info{Records: records, Torn: torn, Detail: r.c.detail}
		st, err := r.f.Stat()
		r.canonical = canonical && !torn && err == nil && tiled == st.Size()
	}
}

// Entries implements SourceReader with the codec's entry scan.
func (r *fileSource) Entries() iter.Seq2[SourceEntry, error] {
	f := new(Fields)
	return scanSource(r, func(payload []byte, ext Extent) (SourceEntry, bool, error) {
		e, err := r.c.entry(payload, f)
		e.Ext = ext
		return e, e.canonical, err
	})
}

// Fields implements SourceReader with the codec's field pass, through one
// view. No frame is judged canonical, so a Fields pass never licenses
// Compact to leave the file alone.
func (r *fileSource) Fields() iter.Seq2[*Fields, error] {
	f := new(Fields)
	return scanSource(r, func(payload []byte, _ Extent) (*Fields, bool, error) {
		return f, false, r.c.fields(payload, f)
	})
}

// raw returns the stored bytes of the record at ext. With ahead set they
// come through the read-ahead window — for the one goroutine of a serial
// write pass, and valid until its next call; otherwise from a positioned
// read of their own, safe for concurrent use.
func (r *fileSource) raw(ext Extent, ahead bool) ([]byte, error) {
	if !ahead {
		raw := make([]byte, ext.Len)
		if _, err := r.f.ReadAt(raw, ext.Off); err != nil {
			return nil, fmt.Errorf("runstore: %s: reading record at byte %d: %w", r.path, ext.Off, err)
		}
		return raw, nil
	}
	if lo := ext.Off - r.aheadOff; lo >= 0 && lo+ext.Len <= int64(len(r.ahead)) {
		return r.ahead[lo : lo+ext.Len], nil
	}
	size := max(ext.Len, readAhead)
	if int64(cap(r.ahead)) < size {
		r.ahead = make([]byte, size)
	}
	n, err := r.f.ReadAt(r.ahead[:size], ext.Off)
	r.ahead, r.aheadOff = r.ahead[:n], ext.Off
	if int64(n) < ext.Len { // err says why: io.EOF at least
		return nil, fmt.Errorf("runstore: %s: reading record at byte %d: %w", r.path, ext.Off, err)
	}
	return r.ahead[:ext.Len], nil
}

// decodeRaw decodes the record whose stored bytes at ext are raw,
// deriving a missing hash.
func (r *fileSource) decodeRaw(raw []byte, ext Extent) (Record, error) {
	payload := r.c.framing.Payload(raw)
	if payload == nil {
		return Record{}, fmt.Errorf("runstore: %s: no whole record at byte %d", r.path, ext.Off)
	}
	rec, err := r.c.read(payload)
	if err != nil {
		return Record{}, fmt.Errorf("runstore: %s: record at byte %d: %w", r.path, ext.Off, err)
	}
	return rec, nil
}

// Read implements SourceReader with one positioned read of the record.
// It is safe for concurrent use (the merge write pass decodes records
// from several goroutines).
func (r *fileSource) Read(ext Extent) (Record, error) {
	raw, err := r.raw(ext, false)
	if err != nil {
		return Record{}, err
	}
	return r.decodeRaw(raw, ext)
}

// Info implements SourceReader; complete after Entries is consumed.
// Distinct is left to whoever indexes the entries (inspect does).
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
	return InspectSource(r)
}

// frame is one record on its way into a rewritten journal: the decoded
// record, or — when raw is set — its extent's bytes exactly as a source
// in the destination's own codec stores them, already canonical.
type frame struct {
	rec Record
	raw []byte
}

// writeFrames atomically replaces dst with the frame sequence in this
// encoding — the bulk writer behind Merge and Compact — and reports how
// many frames it copied. A raw frame is copied as it is; a record is
// encoded here through one pooled buffer, which is how non-canonical
// source encodings (hand-edited lines, archive payloads, the other
// codec) normalize on the way through. A frame is only ever raw when
// encoding its record would produce those same bytes (codec.entry), so
// either way the file is the one Append would have written.
func (c *codec) writeFrames(dst string, frames iter.Seq2[frame, error], modeFrom string) (copied int, err error) {
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	terminator := c.framing.Terminator()
	err = framelog.AtomicWrite(dst, modeFrom, func(w *bufio.Writer) error {
		if _, err := w.WriteString(c.framing.Magic()); err != nil {
			return fmt.Errorf("runstore: %w", err)
		}
		for f, err := range frames {
			if err != nil {
				return err
			}
			out, end := f.raw, terminator
			if out != nil {
				copied++
			} else {
				if f.rec.Hash == "" {
					f.rec.Hash = AssignmentHash(f.rec.Assignment)
				}
				if *bufp, err = c.appendFrame((*bufp)[:0], f.rec); err != nil {
					return err
				}
				out, end = *bufp, ""
			}
			if _, err := w.Write(out); err != nil {
				return fmt.Errorf("runstore: %w", err)
			}
			if _, err := w.WriteString(end); err != nil {
				return fmt.Errorf("runstore: %w", err)
			}
		}
		return nil
	})
	return copied, err
}

// writeFile is the journals' Format.Write: writeFrames for a caller that
// holds records, not a plan — every frame is encoded.
func (c *codec) writeFile(dst string, recs iter.Seq2[Record, error], modeFrom string) error {
	_, err := c.writeFrames(dst, func(yield func(frame, error) bool) {
		for rec, err := range recs {
			if !yield(frame{rec: rec}, err) {
				return
			}
		}
	}, modeFrom)
	return err
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
