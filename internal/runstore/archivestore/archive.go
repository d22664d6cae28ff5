package archivestore

import (
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"iter"
	"os"
	"path/filepath"
	"strings"
	"sync"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// Archive is a single-file, block-indexed run store. It implements
// runstore.Store: reads are served from an in-memory index of block
// locations (loaded from the footer in O(index) time on a finalized
// file) plus point reads of individual record blocks, so an archive is
// never materialized wholesale; appends are durable, checksummed frames.
type Archive struct {
	mu       sync.Mutex
	path     string
	version  int           // latest, unless the file is a legacy one, which is read-only
	log      *framelog.Log // appends; nil for a legacy file, and once closed
	f        *os.File      // reads; nil once closed (reads then reopen read-only per call)
	interval int           // record frames per index page

	idx   map[string]entry // runstore.Key -> record block location
	order []string         // keys in first-appended order
	layout

	dirty bool // the file has no valid footer, or a stale one
	torn  bool // Open dropped a torn tail (a legacy file's is left in place)
}

// Archive is a Store backend like the journal and the shard store.
var _ runstore.Store = (*Archive)(nil)

// Open opens (creating if absent) the archive at path. A finalized
// archive loads its index from the trailer, the footer and the index
// pages without touching record payloads; any other — a crash before
// Close — is recovered by framelog: every frame replayed (a record's key
// read, nothing decoded) and a torn tail truncated, exactly as the
// journal truncates a torn line. Parent directories are created as
// needed. A legacy (version 1 or 2) file opens read-only through the
// streaming walk, and stays untouched.
func Open(path string) (*Archive, error) {
	a := &Archive{path: path, version: latest, interval: DefaultIndexInterval, idx: make(map[string]entry)}
	a.end = int64(len(Magic))
	if err := a.open(); err != nil {
		if a.f != nil {
			a.f.Close()
		}
		if a.log != nil {
			a.log.Close()
		}
		return nil, err
	}
	return a, nil
}

func (a *Archive) open() error {
	f, err := os.Open(a.path)
	switch {
	case err == nil:
		a.f = f
		st, err := f.Stat()
		if err != nil {
			return wrap(err)
		}
		head := make([]byte, len(Magic))
		n, _ := io.ReadFull(f, head)
		switch a.version = versionOf(head[:n]); {
		case a.version == latest:
			if a.loadFinalized(st.Size()) {
				a.log, err = framelog.OpenAt(a.path, a.end)
				return wrap(err)
			}
		case a.version != 0:
			return a.openLegacy(st.Size())
		case !strings.HasPrefix(Magic, string(head[:n])):
			return fmt.Errorf("archivestore: %s is not an archive (bad or short magic)", a.path)
		}
		a.version = latest // a strict prefix of the magic: a crashed creation
	case !errors.Is(err, fs.ErrNotExist):
		return wrap(err)
	}
	if a.log, err = framelog.Open(a.path, frames, a.replay); err != nil {
		return wrap(err)
	}
	a.torn = a.log.Torn()
	a.dirty = a.end > int64(len(Magic))
	if a.f == nil {
		a.f, err = os.Open(a.path)
	}
	return wrap(err)
}

// wrap names the package in an error from below it; nil stays nil.
func wrap(err error) error {
	if err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	return nil
}

// loadFinalized tries the O(index) open: a trailer frame ending the
// file, the footer frame it points at ending right before it, and the
// index pages the footer names — a few point reads, no record read. It
// reports false, leaving the index empty, when any of that fails, and the
// replay takes over.
func (a *Archive) loadFinalized(size int64) bool {
	trailer := size - trailerSize
	typ, body, end := a.frameAt(trailer, size)
	if typ != blockTrailer || len(body) != 8 || end != size {
		return false
	}
	footer := int64(binary.LittleEndian.Uint64(body))
	typ, body, end = a.frameAt(footer, trailer)
	if typ != blockFooter || end != trailer {
		return false
	}
	appended, pages, err := decodeFooter(body)
	if err != nil {
		return false
	}
	// The footer's appended count sizes the index up front: growing a
	// 10^5-entry map incrementally costs more than loading it. No count
	// exceeds the bytes before the footer.
	hint := max(0, min(appended, int(footer)))
	a.idx = make(map[string]entry, hint)
	a.order = make([]string, 0, hint)
	for _, p := range pages {
		typ, body, _ := a.frameAt(p, footer)
		if typ != blockIndex || decodeIndexPage(body, func(exp, hash []byte, rep int, e entry) {
			a.addIndex(string(exp), string(hash), rep, e)
		}) != nil {
			a.idx, a.order = make(map[string]entry), nil
			return false
		}
	}
	a.layout = layout{end: footer, pages: pages, appended: appended}
	return true
}

// frameAt reads the frame at off, which must end by limit, and returns
// its type, its body and where it ends; typ is 0 when there is no valid
// frame there.
func (a *Archive) frameAt(off, limit int64) (typ byte, body []byte, end int64) {
	var hdr [framelog.FrameHeaderSize]byte
	if off < int64(len(Magic)) || off+int64(len(hdr)) > limit {
		return 0, nil, 0
	}
	if _, err := a.f.ReadAt(hdr[:], off); err != nil {
		return 0, nil, 0
	}
	end = off + int64(len(hdr)) + int64(binary.LittleEndian.Uint32(hdr[:]))
	if end > limit {
		return 0, nil, 0
	}
	raw := make([]byte, end-off)
	if _, err := a.f.ReadAt(raw, off); err != nil {
		return 0, nil, 0
	}
	typ, body, _ = splitBlock(latest, raw)
	return typ, body, end
}

// replay indexes one frame of a file framelog is recovering: a record by
// its key alone, an index page as covering what precedes it. Footer and
// trailer frames — a finalization the file has since grown past — and
// types this build does not know are passed over.
func (a *Archive) replay(payload []byte, off, n int64) error {
	switch typ, body := payload[0], payload[1:]; typ {
	case blockRecord:
		exp, hash, rep, err := binaryKey(body)
		if err != nil {
			return framelog.Corrupt(fmt.Errorf("record frame at byte %d: %w", off, err))
		}
		p := pendingEntry{string(exp), string(hash), rep, entry{off: off, n: int32(n)}}
		a.addIndex(p.exp, p.hash, p.rep, p.entry)
		a.pending = append(a.pending, p)
		a.appended++
	case blockIndex:
		a.pages = append(a.pages, off)
		a.pending = a.pending[:0]
	}
	a.end = off + n
	return nil
}

// openLegacy indexes a version-1 or -2 file through the streaming walk,
// read-only: whatever its tail holds stays, and Append refuses.
func (a *Archive) openLegacy(size int64) error {
	r := &reader{path: a.path, f: a.f, size: size, version: a.version}
	err := r.walk(func(f *runstore.Fields, ext runstore.Extent) bool {
		a.addIndex(string(f.Experiment), string(f.Hash), f.Replicate, entry{off: ext.Off, n: int32(ext.Len)})
		return true
	})
	a.layout = layout{pages: r.pages, appended: r.info.Records}
	a.dirty, a.torn = !r.finalized, r.info.Torn
	return err
}

// OpenDir opens the archive for one experiment under dir, mirroring
// runstore.OpenDir: the file is <dir>/<sanitized-experiment>.arch.
func OpenDir(dir, experiment string) (*Archive, error) {
	if experiment == "" {
		return nil, fmt.Errorf("archivestore: experiment name required")
	}
	return Open(filepath.Join(dir, runstore.SanitizeName(experiment)+Ext))
}

// addIndex records one block location, last-wins per key with the first
// appearance keeping its position in the order — the journal's indexing
// rule.
func (a *Archive) addIndex(exp, hash string, rep int, e entry) {
	k := runstore.Key(exp, hash, rep)
	if _, exists := a.idx[k]; !exists {
		a.order = append(a.order, k)
	}
	a.idx[k] = e
}

// Path returns the archive's file path.
func (a *Archive) Path() string { return a.path }

// Info reports the open archive's shape from its in-memory state — the
// same fields the file-level Inspect reads back, without re-reading the
// file. Index entries not yet flushed as a page count toward the page a
// Close would write.
func (a *Archive) Info() runstore.Info {
	a.mu.Lock()
	defer a.mu.Unlock()
	pages := len(a.pages)
	if len(a.pending) > 0 {
		pages++
	}
	detail := fmt.Sprintf("%s: %d record block(s), %d index page(s)", label(a.version), a.appended, pages)
	switch {
	case !a.dirty:
		detail += ", footer ok"
	case a.version < latest:
		detail += ", no valid footer: read-only, left as found"
	case a.torn:
		detail += ", torn tail truncated on open; footer pending until Close"
	default:
		detail += ", unfinalized: footer pending until Close"
	}
	return runstore.Info{Records: a.appended, Distinct: len(a.idx), Torn: a.torn, Detail: detail}
}

// Torn reports whether the file had a torn tail when opened.
func (a *Archive) Torn() bool { return a.torn }

// Len returns the number of distinct archived units.
func (a *Archive) Len() int {
	a.mu.Lock()
	defer a.mu.Unlock()
	return len(a.idx)
}

// Lookup implements runstore.Store: an index hit costs one point read of
// the record's block, never a scan.
func (a *Archive) Lookup(experiment, hash string, replicate int) (runstore.Record, bool) {
	a.mu.Lock()
	defer a.mu.Unlock()
	e, ok := a.idx[runstore.Key(experiment, hash, replicate)]
	if !ok {
		return runstore.Record{}, false
	}
	rec, err := a.readRecord(e)
	if err != nil {
		// The index said the block is there; a read failure means the
		// file was tampered with underneath us. Miss, never a panic.
		return runstore.Record{}, false
	}
	return rec, true
}

// readRecord fetches, verifies and decodes one record block, via the
// open handle or a transient read-only reopen after Close.
func (a *Archive) readRecord(e entry) (runstore.Record, error) {
	r := a.f
	if r == nil {
		rf, err := os.Open(a.path)
		if err != nil {
			return runstore.Record{}, fmt.Errorf("archivestore: %w", err)
		}
		defer rf.Close()
		r = rf
	}
	raw := make([]byte, e.n)
	_, err := r.ReadAt(raw, e.off)
	var rec runstore.Record
	if err == nil {
		rec, err = decodeRecord(a.version, raw)
	}
	if err != nil {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: block at %d: %w", a.path, e.off, err)
	}
	return rec, nil
}

// ReplicateCount implements runstore.Store: contiguous replicates 0..n-1
// of one cell, answered from the in-memory index alone.
func (a *Archive) ReplicateCount(experiment, hash string) int {
	a.mu.Lock()
	defer a.mu.Unlock()
	n := 0
	for {
		if _, ok := a.idx[runstore.Key(experiment, hash, n)]; !ok {
			return n
		}
		n++
	}
}

// Scan implements runstore.Store: all distinct records streamed in
// first-appended order, each served by one point read of its block —
// the record set is never materialized, which is what makes archive
// exports viable at archive scale. The key order is snapshotted when
// iteration starts, so a concurrent Append neither blocks nor corrupts
// an in-flight scan; keys appended after the snapshot are not yielded,
// while a superseding append to a snapshotted key may surface in its
// latest form (blocks are read at yield time — see the Store
// contract). A block that fails to read back (the file was tampered
// with underneath the index) yields the error and stops the scan.
func (a *Archive) Scan() iter.Seq2[runstore.Record, error] {
	return func(yield func(runstore.Record, error) bool) {
		a.mu.Lock()
		keys := make([]string, len(a.order))
		copy(keys, a.order)
		a.mu.Unlock()
		for _, k := range keys {
			a.mu.Lock()
			e, ok := a.idx[k]
			if !ok {
				a.mu.Unlock()
				continue
			}
			rec, err := a.readRecord(e)
			a.mu.Unlock()
			if err != nil {
				yield(runstore.Record{}, err)
				return
			}
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// Append implements runstore.Store. The record becomes one checksummed
// frame committed — written and fsynced — before Append returns, so a
// crash leaves at most one torn frame, exactly what Open's recovery
// truncates. The index page a full interval of records calls for goes
// out in the same commit as the record after them. A legacy file refuses
// every append and is left as it is.
func (a *Archive) Append(rec runstore.Record) error {
	rec, err := runstore.NormalizeAppend(rec)
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	switch {
	case a.f == nil:
		return fmt.Errorf("archivestore: archive %s is closed", a.path)
	case a.log == nil:
		return fmt.Errorf("archivestore: %s is a read-only version-%d archive: rewrite it as version %d to append to it (`perfeval archive NEW%s %s`, or repro.Convert)",
			a.path, a.version, latest, Ext, a.path)
	}
	buf, p, err := a.appendRecord(nil, rec, a.interval)
	if err != nil {
		return err
	}
	if err := a.log.Commit(buf); err != nil {
		return wrap(err)
	}
	a.add(p)
	a.addIndex(p.exp, p.hash, p.rep, p.entry)
	a.dirty = true
	return nil
}

// Close finalizes and closes the archive: the last index page, the
// footer and the trailer frame are committed, so the next Open is
// O(index). Reads keep working after Close via transient read-only
// reopens; Append fails.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	var err error
	if a.log != nil {
		if a.dirty {
			if err = a.log.Commit(a.appendFinish(nil)); err == nil {
				a.dirty = false
			}
		}
		err = errors.Join(err, a.log.Close())
		a.log = nil
	}
	err = errors.Join(err, a.f.Close())
	a.f = nil
	return wrap(err)
}
