package archivestore

import (
	"bufio"
	"bytes"
	"compress/flate"
	"encoding/binary"
	"fmt"
	"io"
	"slices"
	"sync"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// Versions 1 and 2 (docs/FORMAT.md §8, "Legacy"), read and never
// written: a header, blocks of `type u8 | length u32 | crc32c u32 |
// payload` — a type byte, then what has a frame's layout — and, once
// finalized, a footer block and a 16-byte trailer `footer offset u64 |
// crc32c(offset) u32 | trailer magic`. Everything below is reached only
// through the reader's walk (legacyBlocks) and a point read's splitBlock.
const (
	blockRecordJSON = 1 // version 1: key fields + the record's JSON document
	blockRecordZ    = 4 // version 1: key fields + the JSON document, flate-compressed

	legacyBlockHeader = 1 + framelog.FrameHeaderSize
	legacyTrailerSize = 8 + 4 + 4
)

// versions holds each version's header magic and, for a legacy one, the
// magic its trailer ends with; a file's trailer must be its header's.
var versions = [...]struct{ magic, trailer string }{
	1: {"PEVARCH1", "PEA1"},
	2: {"PEVARCH2", "PEA2"},
	3: {Magic, ""},
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

// legacyBlocks is the reader's blocks for a legacy file: its blocks from
// the header on through buffered reads, up to the first that is not a
// complete checksum-valid block — which ends the readable region as a
// torn tail, whatever it is — or up to the footer, which ends the data
// region and finalizes the file when the trailer pointing at it ends the
// file.
func (r *reader) legacyBlocks(fn blockVisit) (finalized bool, dropped int64, err error) {
	off := int64(len(Magic))
	br := bufio.NewReaderSize(io.NewSectionReader(r.f, off, r.size-off), 64<<10)
	var buf []byte // one block buffer for the whole walk
	for {
		typ, payload, ok := splitBlock(r.version, readBlock(br, &buf, r.size-off))
		if !ok {
			break
		}
		n := int64(legacyBlockHeader + len(payload))
		if typ == blockFooter {
			finalized = r.legacyTrailer(off, off+n)
			break
		}
		if err := fn(typ, payload, runstore.Extent{Off: off, Len: n}); err != nil {
			return false, 0, err
		}
		off += n
	}
	if !finalized {
		dropped = r.size - off
	}
	return finalized, dropped, nil
}

// readBlock reads the next block of a legacy walk into *buf, which it
// grows as needed and every call reuses, and returns it — valid until the
// next call — or nil when the rest of the file holds no whole block. The
// length is checked against both the payload bound and the bytes
// remaining in the file before anything is read, so a corrupt length
// field cannot drive a huge allocation.
func readBlock(br *bufio.Reader, buf *[]byte, remaining int64) []byte {
	b := slices.Grow((*buf)[:0], legacyBlockHeader)[:legacyBlockHeader]
	*buf = b
	if _, err := io.ReadFull(br, b); err != nil {
		return nil
	}
	n := int64(binary.LittleEndian.Uint32(b[1:5]))
	if n > maxPayload || n > remaining-int64(legacyBlockHeader) {
		return nil
	}
	b = slices.Grow(b, int(n))[:legacyBlockHeader+int(n)]
	*buf = b
	if _, err := io.ReadFull(br, b[legacyBlockHeader:]); err != nil {
		return nil
	}
	return b
}

// legacyTrailer reports whether the file ends, at end, with the trailer
// of a footer block at footer.
func (r *reader) legacyTrailer(footer, end int64) bool {
	var t [legacyTrailerSize]byte
	if r.size != end+legacyTrailerSize {
		return false
	}
	if _, err := r.f.ReadAt(t[:], end); err != nil || string(t[12:]) != versions[r.version].trailer {
		return false
	}
	// The checksum of the offset is checked as the frame the two would be.
	var frame [framelog.FrameHeaderSize + 8]byte
	binary.LittleEndian.PutUint32(frame[:], 8)
	copy(frame[4:], t[8:12])
	copy(frame[8:], t[:8])
	return frames.Payload(frame[:]) != nil && int64(binary.LittleEndian.Uint64(t[:8])) == footer
}

// legacyFields is recordFields for the JSON record blocks of version 1:
// the key fields, then the record's document — plain, or (type 4, what
// .archz destinations were written as before version 2) its length and
// its DEFLATE stream, inflated into *buf, which is grown as needed and
// may be handed to the next call again, so the fields are valid until
// then.
func legacyFields(typ byte, payload []byte, buf *[]byte, f *runstore.Fields) error {
	_, _, _, doc, err := cutKeyFields(payload)
	if err == nil && typ == blockRecordZ {
		doc, err = inflate(doc, buf)
	}
	if err != nil {
		return err
	}
	if err := runstore.DecodeJSONFields(doc, f); err != nil {
		return fmt.Errorf("archivestore: corrupt record payload: %w", err)
	}
	return nil
}

// flateReaders pools flate readers for the compressed blocks; every
// reader returned by flate.NewReader implements flate.Resetter.
var flateReaders = sync.Pool{New: func() any {
	return flate.NewReader(bytes.NewReader(nil))
}}

// inflate decodes a compressed document — its raw length u32, then the
// stream — into *buf.
func inflate(z []byte, buf *[]byte) ([]byte, error) {
	if len(z) < 4 {
		return nil, fmt.Errorf("archivestore: truncated compressed record payload")
	}
	rawLen := binary.LittleEndian.Uint32(z)
	if rawLen > maxPayload {
		return nil, fmt.Errorf("archivestore: compressed record claims %d raw bytes, max %d", rawLen, maxPayload)
	}
	zr := flateReaders.Get().(io.ReadCloser)
	err := zr.(flate.Resetter).Reset(bytes.NewReader(z[4:]), nil)
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
