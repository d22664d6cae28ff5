package archivestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"iter"
	"os"
	"strings"

	"repro/internal/runstore"
)

// reader is the streaming runstore.SourceReader over one archive file of
// any version: Fields and Entries are one walk of the block sequence
// front to back with buffered reads, every record block walked once by
// its codec's field pass and no record built; Read fetches a single block
// by extent. It backs runstore.OpenSource, LoadRecords, ScanFile, Merge,
// Compact, Inspect and the warehouse ingest for archive files, and
// Archive.Open for a legacy one — the same walk, torn-tail rule, and
// finalization check everywhere.
type reader struct {
	path    string
	f       *os.File
	size    int64
	version int // from the header
	info    runstore.Info
	// What the last complete walk found besides records: the index pages'
	// offsets, and whether the file is finalized.
	pages     []int64
	finalized bool
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
	head := make([]byte, len(Magic))
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

// blockVisit receives one block of a walk: its type, its payload (valid
// only until it returns), and the extent of the whole block.
type blockVisit func(typ byte, payload []byte, ext runstore.Extent) error

// blocks hands fn every block of the file in order and reports whether
// the file is finalized and how many bytes a torn tail holds. A version-3
// file is framelog's scan with framelog's recovery rule, footer and
// trailer frames handed over like any other — the file is finalized when
// its last frames are a footer and the trailer pointing at it; a legacy
// file is legacyBlocks. fn's error stops the walk and is returned.
func (r *reader) blocks(fn blockVisit) (finalized bool, dropped int64, err error) {
	if r.version < latest {
		return r.legacyBlocks(fn)
	}
	footer := int64(-1) // the previous frame's offset, when it was a footer
	keep, torn, err := frames.ScanFile(io.NewSectionReader(r.f, 0, r.size), func(payload []byte, off, n int64) error {
		typ, body := payload[0], payload[1:]
		finalized = typ == blockTrailer && len(body) == 8 && int64(binary.LittleEndian.Uint64(body)) == footer
		footer = -1
		if typ == blockFooter {
			footer = off
		}
		return fn(typ, body, runstore.Extent{Off: off, Len: n})
	})
	if torn {
		return false, r.size - keep, err
	}
	return finalized, 0, err
}

// errStop ends a walk whose consumer stopped early.
var errStop = errors.New("archivestore: walk stopped")

// walk is the one forward pass over the block sequence, behind Fields,
// Entries and a legacy file's Archive.Open: every record block in file
// order, superseded blocks included, its fields handed to fn with the
// block's extent until fn reports false. The view is the walk's own and
// every block refills it: it is valid until fn returns. A torn or
// unfinalized tail ends the walk without error and is reported via Info;
// unknown block types are skipped (forward compatibility, per the
// docs/FORMAT.md versioning policy); a record block that does not decode
// is the walk's error.
func (r *reader) walk(fn func(*runstore.Fields, runstore.Extent) bool) error {
	var (
		records  [blockRecord + 1]int // record blocks by type; the total at 0
		pages    []int64
		inflated []byte // the document of a legacy compressed block
		fields   runstore.Fields
	)
	finalized, dropped, err := r.blocks(func(typ byte, payload []byte, ext runstore.Extent) error {
		switch {
		case isRecord(r.version, typ):
			if err := recordFields(typ, payload, &inflated, &fields); err != nil {
				return fmt.Errorf("block at byte %d: %w", ext.Off, err)
			}
			records[0]++
			records[typ]++
			if !fn(&fields, ext) {
				return errStop
			}
		case typ == blockIndex:
			pages = append(pages, ext.Off)
		}
		return nil
	})
	if err == errStop {
		return nil
	}
	if err != nil {
		return fmt.Errorf("archivestore: %s: %w", r.path, err)
	}
	r.pages, r.finalized = pages, finalized
	r.info = runstore.Info{
		Records: records[0],
		Torn:    dropped > 0 || (!finalized && records[0] > 0),
		Detail:  describe(r.version, records[0], records[blockRecordZ], records[blockRecord], len(pages), finalized, dropped),
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

// Read implements runstore.SourceReader with one positioned read of the
// record block at ext.
func (r *reader) Read(ext runstore.Extent) (runstore.Record, error) {
	raw := make([]byte, ext.Len)
	_, err := r.f.ReadAt(raw, ext.Off)
	var rec runstore.Record
	if err == nil {
		rec, err = decodeRecord(r.version, raw)
	}
	if err != nil {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: block at %d: %w", r.path, ext.Off, err)
	}
	return rec, nil
}

// Info implements runstore.SourceReader; complete once Entries has been
// consumed. Distinct is left to whoever indexes the entries (Inspect
// does).
func (r *reader) Info() runstore.Info { return r.info }

// Close implements runstore.SourceReader.
func (r *reader) Close() error { return r.f.Close() }

// describe renders the archive Detail string of the streaming reader and
// Inspect: the record blocks — in a legacy file, how many of them are
// compressed and how many binary — and the index pages.
func describe(version, records, zrecords, brecords, pages int, finalized bool, dropped int64) string {
	var kinds []string
	if zrecords > 0 {
		kinds = append(kinds, fmt.Sprintf("%d compressed", zrecords))
	}
	if brecords > 0 && version < latest {
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
