package archivestore

import (
	"bufio"
	"encoding/binary"
	"fmt"
	"io"
	"iter"
	"os"
	"slices"
	"strings"

	"repro/internal/runstore"
)

// reader is the streaming runstore.SourceReader over one archive file of
// either version: Fields and Entries are one walk of the block sequence
// front to back with buffered reads, every record block walked once by
// its codec's field pass — a binary payload by the binary codec's, a JSON
// document (a legacy compressed one inflated first) by the JSON codec's —
// and no record built; Read fetches a single block by extent. It backs
// runstore.OpenSource, LoadRecords, ScanFile, Merge, Compact, Inspect and
// the warehouse ingest for archive files — the same walk, torn-tail rule,
// and finalization check everywhere.
type reader struct {
	path    string
	f       *os.File
	size    int64
	version int // from the header; the trailer must agree
	info    runstore.Info
}

// OpenReader opens the archive at path for streaming read-only access —
// the file is never created, repaired, or truncated. It is the
// Format.OpenReader hook registered with runstore.
func OpenReader(path string) (runstore.SourceReader, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, fmt.Errorf("archivestore: %w", err)
	}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archivestore: %w", err)
	}
	head := make([]byte, headerSize)
	if _, err := io.ReadFull(f, head); err != nil {
		clear(head)
	}
	version := versionOf(head)
	if version == 0 {
		f.Close()
		return nil, fmt.Errorf("archivestore: %s is not an archive (bad or short magic)", path)
	}
	return &reader{path: path, f: f, size: st.Size(), version: version}, nil
}

// walk is the one forward pass over the block sequence, behind both
// Fields and Entries: every record block in file order, superseded blocks
// included, its document's fields handed to fn with the block's extent
// until fn reports false. The view is the walk's own and every block
// refills it, through one block buffer (and, for legacy compressed
// blocks, one inflate buffer): it is valid until fn returns. A torn or
// unfinalized tail ends the walk without error and is reported via Info;
// unknown block types with valid checksums are skipped (forward
// compatibility, per the docs/FORMAT.md versioning policy); a record
// block that does not decode is the walk's error.
func (r *reader) walk(fn func(*runstore.Fields, runstore.Extent) bool) error {
	br := bufio.NewReaderSize(io.NewSectionReader(r.f, int64(headerSize), r.size-int64(headerSize)), 256<<10)
	off := int64(headerSize)
	var records [blockRecordB + 1]int // record blocks by type; the total at 0
	pages := 0
	finalized := false
	var (
		frame    []byte // one block buffer for the whole walk
		inflated []byte // and one for the document of a compressed block
		fields   runstore.Fields
	)
scan:
	for {
		typ, payload, ok := readBlock(br, &frame, r.size-off)
		if !ok {
			break // EOF or a torn block: the tail is measured below
		}
		blockLen := int64(blockHeaderSize) + int64(len(payload))
		switch typ {
		case blockFooter:
			// A finalized archive ends footer, trailer, EOF — anything
			// else past the footer is a torn finalize.
			end := off + blockLen
			if r.size == end+int64(trailerSize) {
				t := make([]byte, trailerSize)
				if _, err := r.f.ReadAt(t, end); err == nil {
					if footOff, ok := decodeTrailer(t, r.version); ok && footOff == off {
						finalized = true
					}
				}
			}
			break scan
		case blockRecord, blockRecordZ, blockRecordB:
			if err := recordFields(typ, payload, &inflated, &fields); err != nil {
				return fmt.Errorf("archivestore: %s: %w", r.path, err)
			}
			records[0]++
			records[typ]++
			if !fn(&fields, runstore.Extent{Off: off, Len: blockLen}) {
				return nil
			}
		case blockIndex:
			pages++
		}
		off += blockLen
	}
	var dropped int64
	if !finalized {
		dropped = r.size - off
	}
	r.info = runstore.Info{
		Records: records[0],
		Torn:    dropped > 0 || (!finalized && records[0] > 0),
		Detail:  describe(r.version, records[0], records[blockRecordZ], records[blockRecordB], pages, finalized, dropped),
	}
	return nil
}

// Fields implements runstore.SourceReader: the walk's view of each block.
func (r *reader) Fields() iter.Seq2[*runstore.Fields, error] {
	return func(yield func(*runstore.Fields, error) bool) {
		if err := r.walk(func(f *runstore.Fields, _ runstore.Extent) bool { return yield(f, nil) }); err != nil {
			yield(nil, err)
		}
	}
}

// Entries implements runstore.SourceReader: the same walk, each view
// reduced to its index entry.
func (r *reader) Entries() iter.Seq2[runstore.SourceEntry, error] {
	return func(yield func(runstore.SourceEntry, error) bool) {
		err := r.walk(func(f *runstore.Fields, ext runstore.Extent) bool {
			e := f.Entry()
			e.Ext = ext
			return yield(e, nil)
		})
		if err != nil {
			yield(runstore.SourceEntry{}, err)
		}
	}
}

// readBlock reads the next block of a streamed walk into *buf, which it
// grows as needed and every call reuses; payload is valid until the next
// one. It validates the length against both the payload bound and the
// bytes remaining in the file (so a corrupt length field cannot drive a
// huge allocation) and checks the checksum — parseBlock's torn-block rule
// for streamed input.
func readBlock(br *bufio.Reader, buf *[]byte, remaining int64) (typ byte, payload []byte, ok bool) {
	b := slices.Grow((*buf)[:0], blockHeaderSize)[:blockHeaderSize]
	*buf = b
	if _, err := io.ReadFull(br, b); err != nil {
		return 0, nil, false
	}
	n := int64(binary.LittleEndian.Uint32(b[1:5]))
	if b[0] == 0 || n > maxPayload || n > remaining-int64(blockHeaderSize) {
		return 0, nil, false // a zeroed region is damage, not a block
	}
	b = slices.Grow(b, int(n))[:blockHeaderSize+int(n)]
	*buf = b
	if _, err := io.ReadFull(br, b[blockHeaderSize:]); err != nil {
		return 0, nil, false
	}
	return parseBlock(b, 0)
}

// Read implements runstore.SourceReader with one positioned read of the
// record block at ext.
func (r *reader) Read(ext runstore.Extent) (runstore.Record, error) {
	buf := make([]byte, ext.Len)
	if _, err := r.f.ReadAt(buf, ext.Off); err != nil {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: reading block at %d: %w", r.path, ext.Off, err)
	}
	typ, payload, ok := parseBlock(buf, 0)
	if !ok || !isRecordBlock(typ) {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: block at %d is not a valid record", r.path, ext.Off)
	}
	return decodeRecordBlock(typ, payload)
}

// Info implements runstore.SourceReader; complete once Entries has been
// consumed. Distinct is left to whoever indexes the entries (Inspect
// does).
func (r *reader) Info() runstore.Info { return r.info }

// Close implements runstore.SourceReader.
func (r *reader) Close() error { return r.f.Close() }

// describe renders the archive Detail string of the streaming reader and
// Inspect: the record blocks, how many of them are legacy compressed ones
// and how many binary, and the index pages.
func describe(version, records, zrecords, brecords, pages int, finalized bool, dropped int64) string {
	var kinds []string
	if zrecords > 0 {
		kinds = append(kinds, fmt.Sprintf("%d compressed", zrecords))
	}
	if brecords > 0 {
		kinds = append(kinds, fmt.Sprintf("%d binary", brecords))
	}
	detail := fmt.Sprintf("%s: %d record block(s)", label(version), records)
	if len(kinds) > 0 {
		detail += " (" + strings.Join(kinds, ", ") + ")"
	}
	detail += fmt.Sprintf(", %d index page(s)", pages)
	switch {
	case finalized:
		detail += ", footer ok"
	case dropped > 0:
		detail += fmt.Sprintf(", TRUNCATED: no valid footer, %d trailing byte(s) would be dropped on open", dropped)
	default:
		detail += ", unfinalized: no footer yet, open falls back to a full scan"
	}
	return detail
}
