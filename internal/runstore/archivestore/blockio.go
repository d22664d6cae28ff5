package archivestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"math"
	"slices"
	"sync"

	"repro/internal/runstore"
)

// On-disk layout constants. The normative specification lives in
// docs/FORMAT.md; change either in lockstep with the other and with the
// version digit baked into the magic strings.
const (
	// Magic is the 8-byte file header of a version-1 archive — what a new
	// live Archive and the plain bulk writer (Write) start a file with.
	// The trailing digit is the format version: an incompatible layout
	// change bumps it, so old readers reject new files instead of
	// misparsing them.
	Magic = "PEVARCH1"
	// TrailerMagic ends the fixed-size trailer of a finalized version-1
	// archive.
	TrailerMagic = "PEA1"
	// MagicV2 is the file header of a version-2 archive, the version
	// WriteCompressed writes: its record blocks carry the binary codec's
	// payload (blockRecordB), which a version-1 reader would skip as an
	// unknown block type — a silent partial read — so the version is
	// bumped and such a reader refuses the file instead.
	MagicV2 = "PEVARCH2"
	// TrailerMagicV2 ends the trailer of a finalized version-2 archive.
	TrailerMagicV2 = "PEA2"
	// Ext is the file extension of archive files; runstore.Merge writes
	// an archive when its destination carries it.
	Ext = ".arch"
	// ExtZ is the destination extension selecting the binary bulk writer
	// (WriteCompressed): a version-2 archive, same block framing and
	// index, whose record blocks carry the binary codec's payload. As a
	// source it is sniffed and read as "archive", like any other.
	ExtZ = ".archz"

	blockRecord  = 1 // one record: key fields + JSON payload
	blockIndex   = 2 // one index page: key -> block location entries
	blockFooter  = 3 // the footer: appended count + index page offsets
	blockRecordZ = 4 // legacy, read only: key fields + flate-compressed JSON doc
	blockRecordB = 5 // version 2: one record's binary payload, its own key

	headerSize      = len(Magic)
	blockHeaderSize = 1 + 4 + 4 // type, payload length, payload CRC
	trailerSize     = 8 + 4 + 4 // footer offset, its CRC, trailer magic

	// maxPayload bounds a block payload so a corrupt length field cannot
	// drive a multi-gigabyte allocation during recovery scans.
	maxPayload = 1 << 30

	// DefaultIndexInterval is how many record blocks accumulate before an
	// index page is interleaved into the data stream. Larger intervals
	// mean fewer, bigger pages; recovery and open costs are unaffected
	// (open reads every page either way, scans read every block).
	DefaultIndexInterval = 1024
)

// versions holds each archive version's header and trailer magic,
// indexed by version number. A file's trailer must be its header's.
var versions = [...]struct{ magic, trailer string }{
	1: {Magic, TrailerMagic},
	2: {MagicV2, TrailerMagicV2},
}

// versionOf returns the version whose header magic head is, 0 for none.
func versionOf(head []byte) int {
	for v := 1; v < len(versions); v++ {
		if string(head) == versions[v].magic {
			return v
		}
	}
	return 0
}

// label names an archive of the given version in Info details: "archive"
// for version 1, whose details predate version 2 and stay as they were.
func label(version int) string {
	if version == 1 {
		return "archive"
	}
	return fmt.Sprintf("archive v%d", version)
}

// castagnoli is the CRC-32C table every block checksum uses.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// entry locates one record block in the file.
type entry struct {
	off int64 // file offset of the block header
	n   int32 // total block length, header included
}

// pendingEntry is an index entry not yet covered by an on-disk index
// page: the key fields it will be written with, plus the location.
type pendingEntry struct {
	exp, hash string
	rep       int
	entry
}

// appendBlock frames a payload as a block: type byte, length, CRC-32C,
// payload.
func appendBlock(dst []byte, typ byte, payload []byte) []byte {
	var hdr [blockHeaderSize]byte
	hdr[0] = typ
	binary.LittleEndian.PutUint32(hdr[1:5], uint32(len(payload)))
	binary.LittleEndian.PutUint32(hdr[5:9], crc32.Checksum(payload, castagnoli))
	dst = append(dst, hdr[:]...)
	return append(dst, payload...)
}

// parseBlock validates the block starting at data[off:] and returns its
// type and payload. ok is false — with no error — when the bytes there do
// not form a complete, checksummed block: the torn-tail signal recovery
// scans truncate at. Unknown block types with a valid checksum are
// returned as-is — per the docs/FORMAT.md versioning policy, scanners
// skip them, so future auxiliary block types do not read as torn tails.
func parseBlock(data []byte, off int64) (typ byte, payload []byte, ok bool) {
	if off < 0 || int64(len(data))-off < int64(blockHeaderSize) {
		return 0, nil, false
	}
	b := data[off:]
	typ = b[0]
	if typ == 0 { // a zeroed region is damage, not a block
		return 0, nil, false
	}
	n := binary.LittleEndian.Uint32(b[1:5])
	if n > maxPayload || int64(len(b)) < int64(blockHeaderSize)+int64(n) {
		return 0, nil, false
	}
	payload = b[blockHeaderSize : blockHeaderSize+int(n)]
	if crc32.Checksum(payload, castagnoli) != binary.LittleEndian.Uint32(b[5:9]) {
		return 0, nil, false
	}
	return typ, payload, true
}

// appendKeyFields serializes the (experiment, hash, replicate) key the
// way record blocks and index entries share it.
func appendKeyFields(dst []byte, exp, hash string, rep int) []byte {
	var n [4]byte
	binary.LittleEndian.PutUint16(n[:2], uint16(len(exp)))
	dst = append(dst, n[:2]...)
	dst = append(dst, exp...)
	binary.LittleEndian.PutUint16(n[:2], uint16(len(hash)))
	dst = append(dst, n[:2]...)
	dst = append(dst, hash...)
	binary.LittleEndian.PutUint32(n[:4], uint32(rep))
	return append(dst, n[:4]...)
}

// cutKeyFields decodes what appendKeyFields wrote, the strings still in
// the buffer, and returns the rest of it.
func cutKeyFields(b []byte) (exp, hash []byte, rep int, rest []byte, err error) {
	readStr := func() ([]byte, error) {
		if len(b) < 2 {
			return nil, fmt.Errorf("archivestore: truncated key field")
		}
		n := int(binary.LittleEndian.Uint16(b[:2]))
		b = b[2:]
		if len(b) < n {
			return nil, fmt.Errorf("archivestore: truncated key field")
		}
		s := b[:n]
		b = b[n:]
		return s, nil
	}
	if exp, err = readStr(); err != nil {
		return
	}
	if hash, err = readStr(); err != nil {
		return
	}
	if len(b) < 4 {
		err = fmt.Errorf("archivestore: truncated key field")
		return
	}
	rep = int(binary.LittleEndian.Uint32(b[:4]))
	rest = b[4:]
	return
}

// parseKeyFields is cutKeyFields with the strings copied out.
func parseKeyFields(b []byte) (exp, hash string, rep int, rest []byte, err error) {
	e, h, rep, rest, err := cutKeyFields(b)
	return string(e), string(h), rep, rest, err
}

// appendRecordPayload appends the payload of rec's record block in a file
// of the given version to dst and returns the block's type with it: in
// version 1 key fields followed by the record's canonical JSON document
// (runstore.AppendJSON, the payload of a journal line), in version 2 the
// binary codec's payload (runstore.AppendBinary, a binary journal frame's),
// whose first three fields are the key — either way the record round-trips
// losslessly through every other format. Index pages carry the key in
// fields with u16 length prefixes, so over-long names are rejected here
// rather than silently wrapped into a corrupt encoding. On error dst is
// returned unextended.
func appendRecordPayload(dst []byte, version int, rec runstore.Record) (byte, []byte, error) {
	if len(rec.Experiment) > math.MaxUint16 {
		return 0, dst, fmt.Errorf("archivestore: experiment name is %d bytes, max %d", len(rec.Experiment), math.MaxUint16)
	}
	if len(rec.Hash) > math.MaxUint16 {
		return 0, dst, fmt.Errorf("archivestore: assignment hash is %d bytes, max %d", len(rec.Hash), math.MaxUint16)
	}
	if version == 2 {
		return blockRecordB, runstore.AppendBinary(dst, rec), nil
	}
	out, err := runstore.AppendJSON(appendKeyFields(dst, rec.Experiment, rec.Hash, rec.Replicate), rec)
	if err != nil {
		return 0, dst, fmt.Errorf("archivestore: %w", err)
	}
	return blockRecord, out, nil
}

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

// recordPayloadKey parses only the key of a record block payload of type
// typ — what recovery scans need, no document read: the key fields a JSON
// record block leads with, plain or compressed, or a binary block's first
// three fields.
func recordPayloadKey(typ byte, payload []byte) (exp, hash string, rep int, err error) {
	if typ == blockRecordB {
		e, h, rep, err := binaryKey(payload)
		return string(e), string(h), rep, err
	}
	exp, hash, rep, _, err = parseKeyFields(payload)
	return
}

// isRecordBlock reports whether typ carries a record — JSON, compressed
// JSON or binary. Everything that indexes, scans, or reads record blocks
// dispatches through it so the encodings stay interchangeable.
func isRecordBlock(typ byte) bool {
	return typ == blockRecord || typ == blockRecordZ || typ == blockRecordB
}

// recordFields is the field pass over a record block payload of type typ:
// f filled with the record the block holds, pointing into payload — or,
// for a compressed block, into *buf, which the document is inflated into
// (see recordDoc). A payload that does not decode is the error, its key
// included: a block a recovery scan would stop at (recordPayloadKey) never
// yields fields.
func recordFields(typ byte, payload []byte, buf *[]byte, f *runstore.Fields) error {
	if typ == blockRecordB {
		if _, _, _, err := binaryKey(payload); err != nil {
			return err
		}
		if err := runstore.DecodeBinaryFields(payload, f); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
		return nil
	}
	doc, err := recordDoc(typ, payload, buf)
	if err != nil {
		return err
	}
	if err := runstore.DecodeJSONFields(doc, f); err != nil {
		return fmt.Errorf("archivestore: corrupt record payload: %w", err)
	}
	return nil
}

// decodeRecordBlock decodes a record block payload according to its
// block type.
func decodeRecordBlock(typ byte, payload []byte) (runstore.Record, error) {
	if typ == blockRecordB {
		var f runstore.Fields // on this stack
		if err := recordFields(typ, payload, nil, &f); err != nil {
			return runstore.Record{}, err
		}
		return f.Record(), nil
	}
	doc, err := recordDoc(typ, payload, new([]byte))
	if err != nil {
		return runstore.Record{}, err
	}
	rec, err := runstore.DecodeJSON(doc)
	if err != nil {
		return runstore.Record{}, fmt.Errorf("archivestore: corrupt record payload: %w", err)
	}
	return rec, nil
}

// flateReaders pools flate readers for the legacy compressed blocks;
// every reader returned by flate.NewReader implements flate.Resetter.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// recordDoc returns the record's JSON document inside a JSON record block
// payload of type typ: what follows the key fields — a compressed one
// (type 4, written by the compact bulk writer before version 2: the raw
// document's length, then its DEFLATE stream) inflated into *buf, which
// is grown as needed and which the next call may be handed again, so the
// document is valid until then.
func recordDoc(typ byte, payload []byte, buf *[]byte) ([]byte, error) {
	_, _, _, rest, err := cutKeyFields(payload)
	if err != nil || typ != blockRecordZ {
		return rest, err
	}
	if len(rest) < 4 {
		return nil, fmt.Errorf("archivestore: truncated compressed record payload")
	}
	rawLen := binary.LittleEndian.Uint32(rest[:4])
	if rawLen > maxPayload {
		return nil, fmt.Errorf("archivestore: compressed record claims %d raw bytes, max %d", rawLen, maxPayload)
	}
	zr := flateReaders.Get().(io.ReadCloser)
	err = zr.(flate.Resetter).Reset(bytes.NewReader(rest[4:]), nil)
	doc := slices.Grow((*buf)[:0], int(rawLen))[:rawLen]
	*buf = doc
	if err == nil {
		_, err = io.ReadFull(zr, doc)
	}
	if err == nil {
		// The stream must end exactly here: a declared length shorter
		// than the stream, or a stream truncated after its last payload
		// byte but before the final-block marker, is corruption.
		var tail [1]byte
		if n, rerr := zr.Read(tail[:]); n != 0 || rerr != io.EOF {
			err = fmt.Errorf("stream does not end at declared length (%v)", rerr)
		}
	}
	flateReaders.Put(zr)
	if err != nil {
		return nil, fmt.Errorf("archivestore: corrupt compressed record payload: %w", err)
	}
	return doc, nil
}

// encodeIndexPayload builds an index page payload from pending entries.
func encodeIndexPayload(pending []pendingEntry) []byte {
	var n [8]byte
	binary.LittleEndian.PutUint32(n[:4], uint32(len(pending)))
	payload := append([]byte(nil), n[:4]...)
	for _, p := range pending {
		payload = appendKeyFields(payload, p.exp, p.hash, p.rep)
		binary.LittleEndian.PutUint64(n[:8], uint64(p.off))
		payload = append(payload, n[:8]...)
		binary.LittleEndian.PutUint32(n[:4], uint32(p.n))
		payload = append(payload, n[:4]...)
	}
	return payload
}

// decodeIndexPayload streams the entries of an index page payload to fn.
func decodeIndexPayload(payload []byte, fn func(exp, hash string, rep int, e entry) error) error {
	if len(payload) < 4 {
		return fmt.Errorf("archivestore: truncated index page")
	}
	count := int(binary.LittleEndian.Uint32(payload[:4]))
	b := payload[4:]
	for i := 0; i < count; i++ {
		exp, hash, rep, rest, err := parseKeyFields(b)
		if err != nil {
			return err
		}
		if len(rest) < 12 {
			return fmt.Errorf("archivestore: truncated index entry")
		}
		e := entry{
			off: int64(binary.LittleEndian.Uint64(rest[:8])),
			n:   int32(binary.LittleEndian.Uint32(rest[8:12])),
		}
		if err := fn(exp, hash, rep, e); err != nil {
			return err
		}
		b = rest[12:]
	}
	return nil
}

// encodeFooterPayload builds the footer payload: total appended record
// count plus the offset of every index page, in file order.
func encodeFooterPayload(appended int, pages []int64) []byte {
	var n [8]byte
	binary.LittleEndian.PutUint64(n[:8], uint64(appended))
	payload := append([]byte(nil), n[:8]...)
	binary.LittleEndian.PutUint32(n[:4], uint32(len(pages)))
	payload = append(payload, n[:4]...)
	for _, p := range pages {
		binary.LittleEndian.PutUint64(n[:8], uint64(p))
		payload = append(payload, n[:8]...)
	}
	return payload
}

// decodeFooterPayload parses a footer payload.
func decodeFooterPayload(payload []byte) (appended int, pages []int64, err error) {
	if len(payload) < 12 {
		return 0, nil, fmt.Errorf("archivestore: truncated footer")
	}
	appended = int(binary.LittleEndian.Uint64(payload[:8]))
	count := int(binary.LittleEndian.Uint32(payload[8:12]))
	b := payload[12:]
	if len(b) != 8*count {
		return 0, nil, fmt.Errorf("archivestore: footer page table length mismatch")
	}
	pages = make([]int64, count)
	for i := range pages {
		pages[i] = int64(binary.LittleEndian.Uint64(b[8*i : 8*i+8]))
	}
	return appended, pages, nil
}

// encodeTrailer builds the fixed-size trailer of an archive of the given
// version, pointing at the footer block.
func encodeTrailer(footerOff int64, version int) []byte {
	t := make([]byte, trailerSize)
	binary.LittleEndian.PutUint64(t[:8], uint64(footerOff))
	binary.LittleEndian.PutUint32(t[8:12], crc32.Checksum(t[:8], castagnoli))
	copy(t[12:], versions[version].trailer)
	return t
}

// decodeTrailer validates a 16-byte trailer of an archive of the given
// version and returns the footer offset; ok is false for anything that is
// not a well-formed trailer of that version — another version's included.
func decodeTrailer(t []byte, version int) (footerOff int64, ok bool) {
	if len(t) != trailerSize || string(t[12:]) != versions[version].trailer {
		return 0, false
	}
	if crc32.Checksum(t[:8], castagnoli) != binary.LittleEndian.Uint32(t[8:12]) {
		return 0, false
	}
	return int64(binary.LittleEndian.Uint64(t[:8])), true
}
