package archivestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// On-disk layout constants. The normative specification lives in
// docs/FORMAT.md; change either in lockstep with the other and with the
// version digit baked into the magic.
const (
	// Magic is the 8-byte header of a version-3 archive, the version every
	// writer writes: a frame log (internal/framelog) whose every frame's
	// payload leads with its block type. The trailing digit is the format
	// version: an incompatible layout change bumps it, so old readers
	// reject new files instead of misparsing them.
	Magic = "PEVARCH3"
	// Ext is the file extension of archive files; runstore.Merge writes
	// an archive when its destination carries it.
	Ext = ".arch"
	// ExtZ is accepted wherever Ext is, as a destination that writes the
	// same version-3 file. It once selected a smaller encoding, which is
	// now the only one.
	ExtZ = ".archz"

	latest = 3 // the version of Magic

	blockIndex   = 2 // one index page: key -> record frame location entries
	blockFooter  = 3 // the footer: appended count + index page offsets
	blockRecord  = 5 // one record: the binary codec's payload, its own key
	blockTrailer = 6 // the last frame of a finalized file: the footer's offset

	// trailerSize is the trailer frame's length: a frame header, the type
	// byte and the footer offset.
	trailerSize = framelog.FrameHeaderSize + 1 + 8

	// maxPayload bounds a frame so a corrupt length field cannot drive a
	// multi-gigabyte allocation during a scan.
	maxPayload = 1 << 30

	// DefaultIndexInterval is how many record frames accumulate before an
	// index page is interleaved into the data stream. Larger intervals
	// mean fewer, bigger pages; recovery and open costs are unaffected
	// (open reads every page either way, scans read every frame).
	DefaultIndexInterval = 1024
)

// frames is the framing of a version-3 archive.
var frames = framelog.Frames("archive", Magic, maxPayload)

// entry locates one record block in the file.
type entry struct {
	off int64 // file offset of the block
	n   int32 // total block length, header included
}

// pendingEntry is an index entry not yet covered by an on-disk index
// page: the key fields it will be written with, plus the location.
type pendingEntry struct {
	exp, hash string
	rep       int
	entry
}

// layout is what a writer knows of the file it writes: where the next
// frame lands, and what the index pages and the footer have to say. The
// live Archive and the bulk writer each keep one and write through its
// two append methods, which is why they write the same bytes for the
// same records.
type layout struct {
	end      int64          // where the next frame lands
	pending  []pendingEntry // record frames no index page covers yet
	pages    []int64        // index page offsets, in file order
	appended int            // record frames written, superseded ones included
}

// appendRecord appends to dst what the next record puts in the file —
// the index page the previous record filled, if it did, then rec's frame
// — and returns it with the entry rec is indexed under. The layout is
// unchanged until add is handed that entry, once the bytes are written.
// Index pages carry the key in fields with u16 length prefixes, so an
// over-long name is rejected here, dst returned unextended, rather than
// silently wrapped into a corrupt page.
func (l *layout) appendRecord(dst []byte, rec runstore.Record, interval int) ([]byte, pendingEntry, error) {
	if len(rec.Experiment) > math.MaxUint16 || len(rec.Hash) > math.MaxUint16 {
		return dst, pendingEntry{}, fmt.Errorf("archivestore: experiment name (%d bytes) or assignment hash (%d bytes) over the max of %d",
			len(rec.Experiment), len(rec.Hash), math.MaxUint16)
	}
	start := len(dst)
	if len(l.pending) >= interval {
		dst = appendIndexFrame(dst, l.pending)
	}
	at := len(dst)
	dst = frames.Seal(runstore.AppendBinary(append(frames.Reserve(dst), blockRecord), rec), at)
	return dst, pendingEntry{rec.Experiment, rec.Hash, rec.Replicate, entry{off: l.end + int64(at-start), n: int32(len(dst) - at)}}, nil
}

// add notes the record appendRecord returned p for as written.
func (l *layout) add(p pendingEntry) {
	if p.off > l.end { // an index page went first
		l.pages = append(l.pages, l.end)
		l.pending = l.pending[:0]
	}
	l.pending = append(l.pending, p)
	l.end = p.off + int64(p.n)
	l.appended++
}

// appendFinish appends to dst what finalizes the file: an index page of
// what no page covers yet, the footer naming every page, and the trailer
// frame pointing at the footer.
func (l *layout) appendFinish(dst []byte) []byte {
	start := len(dst)
	pages := l.pages
	if len(l.pending) > 0 {
		pages = append(pages[:len(pages):len(pages)], l.end)
		dst = appendIndexFrame(dst, l.pending)
	}
	footer := l.end + int64(len(dst)-start)
	at := len(dst)
	dst = binary.LittleEndian.AppendUint64(append(frames.Reserve(dst), blockFooter), uint64(l.appended))
	dst = binary.LittleEndian.AppendUint32(dst, uint32(len(pages)))
	for _, p := range pages {
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p))
	}
	dst = frames.Seal(dst, at)
	at = len(dst)
	return frames.Seal(binary.LittleEndian.AppendUint64(append(frames.Reserve(dst), blockTrailer), uint64(footer)), at)
}

// appendIndexFrame appends an index page frame of the pending entries.
func appendIndexFrame(dst []byte, pending []pendingEntry) []byte {
	start := len(dst)
	dst = binary.LittleEndian.AppendUint32(append(frames.Reserve(dst), blockIndex), uint32(len(pending)))
	for _, p := range pending {
		dst = appendKeyFields(dst, p.exp, p.hash, p.rep)
		dst = binary.LittleEndian.AppendUint64(dst, uint64(p.off))
		dst = binary.LittleEndian.AppendUint32(dst, uint32(p.n))
	}
	return frames.Seal(dst, start)
}

// decodeIndexPage streams the entries of an index page's body to fn.
func decodeIndexPage(body []byte, fn func(exp, hash []byte, rep int, e entry)) error {
	if len(body) < 4 {
		return errors.New("archivestore: truncated index page")
	}
	count := int(binary.LittleEndian.Uint32(body))
	b := body[4:]
	for i := 0; i < count; i++ {
		exp, hash, rep, rest, err := cutKeyFields(b)
		if err != nil {
			return err
		}
		if len(rest) < 12 {
			return errors.New("archivestore: truncated index entry")
		}
		fn(exp, hash, rep, entry{off: int64(binary.LittleEndian.Uint64(rest)), n: int32(binary.LittleEndian.Uint32(rest[8:]))})
		b = rest[12:]
	}
	return nil
}

// decodeFooter parses a footer's body: the appended count and the offset
// of every index page.
func decodeFooter(body []byte) (appended int, pages []int64, err error) {
	if len(body) < 12 {
		return 0, nil, errors.New("archivestore: truncated footer")
	}
	appended = int(binary.LittleEndian.Uint64(body))
	count := int(binary.LittleEndian.Uint32(body[8:]))
	b := body[12:]
	if len(b) != 8*count {
		return 0, nil, errors.New("archivestore: footer page table length mismatch")
	}
	pages = make([]int64, count)
	for i := range pages {
		pages[i] = int64(binary.LittleEndian.Uint64(b[8*i:]))
	}
	return appended, pages, nil
}

// appendKeyFields serializes the (experiment, hash, replicate) key the
// way index entries (and legacy record blocks) carry it.
func appendKeyFields(dst []byte, exp, hash string, rep int) []byte {
	dst = append(binary.LittleEndian.AppendUint16(dst, uint16(len(exp))), exp...)
	dst = append(binary.LittleEndian.AppendUint16(dst, uint16(len(hash))), hash...)
	return binary.LittleEndian.AppendUint32(dst, uint32(rep))
}

// cutKeyFields decodes what appendKeyFields wrote, the strings still in
// the buffer, and returns the rest of it.
func cutKeyFields(b []byte) (exp, hash []byte, rep int, rest []byte, err error) {
	str := func() ([]byte, bool) {
		if len(b) < 2 || len(b)-2 < int(binary.LittleEndian.Uint16(b)) {
			return nil, false
		}
		n := 2 + int(binary.LittleEndian.Uint16(b))
		s := b[2:n]
		b = b[n:]
		return s, true
	}
	exp, ok := str()
	if ok {
		hash, ok = str()
	}
	if !ok || len(b) < 4 {
		return nil, nil, 0, nil, errKeyFields
	}
	return exp, hash, int(binary.LittleEndian.Uint32(b)), b[4:], nil
}

var errKeyFields = errors.New("archivestore: truncated key field")

// errBinaryKey is what a binary record block whose key does not parse
// fails with.
var errBinaryKey = errors.New("archivestore: corrupt binary record block: malformed key")

// binaryKey parses the key a binary record block's payload leads with —
// the experiment, hash and replicate fields of the binary codec's payload
// (docs/FORMAT.md §4), by the codec's own rules — without reading the
// rest, the strings still in the payload. Every writer fills the hash
// first, so a payload without one is malformed, as one whose key fields
// are cut short is.
func binaryKey(b []byte) (exp, hash []byte, rep int, err error) {
	str := func() ([]byte, bool) {
		n, k := binary.Uvarint(b)
		if k <= 0 || n > uint64(len(b)-k) {
			return nil, false
		}
		s := b[k : k+int(n)]
		b = b[k+int(n):]
		return s, true
	}
	exp, ok := str()
	if ok {
		hash, ok = str()
	}
	r, k := binary.Varint(b)
	if !ok || len(hash) == 0 || k <= 0 {
		return nil, nil, 0, errBinaryKey
	}
	return exp, hash, int(r), nil
}

// isRecord reports whether a block of type typ in a file of the given
// version holds a record: a binary one in every version, a JSON or a
// compressed JSON one in a legacy file. Everything that indexes, scans or
// reads records dispatches through it.
func isRecord(version int, typ byte) bool {
	return typ == blockRecord || version < latest && (typ == blockRecordJSON || typ == blockRecordZ)
}

// recordFields is the field pass over a record block's payload of type
// typ: f filled with the record the block holds, pointing into payload —
// or, for a legacy compressed block, into *buf (legacyFields). A payload
// that does not decode is the error, its key included: a block whose key
// a recovery scan could not index never yields fields.
func recordFields(typ byte, payload []byte, buf *[]byte, f *runstore.Fields) error {
	if typ != blockRecord {
		return legacyFields(typ, payload, buf, f)
	}
	if _, _, _, err := binaryKey(payload); err != nil {
		return err
	}
	if err := runstore.DecodeBinaryFields(payload, f); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	return nil
}

// splitBlock returns the type and payload of raw, one whole block of a
// file of the given version as an index or a walk located it; ok is false
// when raw is not one checksum-valid block. A version-3 block is a frame
// whose payload leads with the type; a legacy one is its type byte
// followed by what has a frame's layout.
func splitBlock(version int, raw []byte) (typ byte, payload []byte, ok bool) {
	if version < latest {
		if len(raw) == 0 || raw[0] == 0 {
			return 0, nil, false
		}
		payload = frames.Payload(raw[1:])
		return raw[0], payload, payload != nil
	}
	payload = frames.Payload(raw)
	if len(payload) == 0 {
		return 0, nil, false
	}
	return payload[0], payload[1:], true
}

// decodeRecord decodes raw, the whole record block at an index entry or
// a walk's extent in a file of the given version: the point read behind
// Archive.Lookup and the streaming reader's Read.
func decodeRecord(version int, raw []byte) (runstore.Record, error) {
	typ, payload, ok := splitBlock(version, raw)
	if !ok || !isRecord(version, typ) {
		return runstore.Record{}, errors.New("not a valid record block")
	}
	var f runstore.Fields
	if err := recordFields(typ, payload, new([]byte), &f); err != nil {
		return runstore.Record{}, err
	}
	return f.Record(), nil
}
