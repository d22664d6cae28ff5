package archivestore

import (
	"encoding/binary"
	"fmt"
	"iter"
	"os"
	"path/filepath"
	"sync"

	"repro/internal/runstore"
)

// Archive is a single-file, block-indexed run store. It implements
// runstore.Store: reads are served from an in-memory index of block
// locations (loaded from the footer in O(index) time on a finalized
// file) plus point reads of individual record blocks, so an archive is
// never materialized wholesale; appends are durable, checksummed blocks.
type Archive struct {
	mu       sync.Mutex
	path     string
	f        *os.File // nil after Close; reads then reopen read-only per call
	version  int      // the file's format version: its magic, trailer and record blocks
	interval int      // record blocks per index page

	idx      map[string]entry // runstore.Key -> record block location
	order    []string         // keys in first-appended order
	pending  []pendingEntry   // appends not yet covered by an index page
	pages    []int64          // index page offsets, in file order
	appended int              // record blocks ever written, superseded included

	dataEnd      int64 // next append offset (= end of last data block)
	needTruncate bool  // a loaded footer must be cut off before appending
	dirty        bool  // the on-disk footer is absent or stale
	torn         bool  // recovery dropped a torn tail on open
	closed       bool
}

// Archive is a Store backend like the journal and the shard store.
var _ runstore.Store = (*Archive)(nil)

// Open opens (creating if absent) the archive at path. A finalized
// archive loads its index from the footer without touching record
// payloads; an unfinalized one — a crash before Close — is recovered by
// scanning block checksums and truncating the torn tail, exactly as the
// journal truncates a torn line. Parent directories are created as
// needed. A new file is a version-1 archive; an existing one keeps its
// version, and its appends are written in that version's record block
// (appendRecordPayload).
func Open(path string) (*Archive, error) {
	if dir := filepath.Dir(path); dir != "." {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return nil, fmt.Errorf("archivestore: %w", err)
		}
	}
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("archivestore: %w", err)
	}
	a := &Archive{path: path, f: f, version: 1, interval: DefaultIndexInterval, idx: make(map[string]entry)}
	st, err := f.Stat()
	if err != nil {
		f.Close()
		return nil, fmt.Errorf("archivestore: %w", err)
	}
	size := st.Size()
	if size == 0 {
		if _, err := f.WriteAt([]byte(Magic), 0); err != nil {
			f.Close()
			return nil, fmt.Errorf("archivestore: %w", err)
		}
		if err := f.Sync(); err != nil {
			f.Close()
			return nil, fmt.Errorf("archivestore: %w", err)
		}
		a.dataEnd = int64(headerSize)
		return a, nil
	}
	head := make([]byte, headerSize)
	if _, err := f.ReadAt(head, 0); err != nil {
		clear(head)
	}
	if a.version = versionOf(head); a.version == 0 {
		f.Close()
		return nil, fmt.Errorf("archivestore: %s is not an archive (bad or short magic)", path)
	}
	ok, err := a.loadFinalized(size)
	if err != nil {
		f.Close()
		return nil, err
	}
	if ok {
		return a, nil
	}
	if err := a.recover(size); err != nil {
		f.Close()
		return nil, err
	}
	return a, nil
}

// OpenDir opens the archive for one experiment under dir, mirroring
// runstore.OpenDir: the file is <dir>/<sanitized-experiment>.arch.
func OpenDir(dir, experiment string) (*Archive, error) {
	if experiment == "" {
		return nil, fmt.Errorf("archivestore: experiment name required")
	}
	return Open(filepath.Join(dir, runstore.SanitizeName(experiment)+Ext))
}

// loadFinalized tries the O(index) open path: a valid trailer at EOF, a
// checksummed footer, and checksummed index pages. It returns false (and
// resets the partial index) when any of that fails, handing over to the
// recovery scan.
func (a *Archive) loadFinalized(size int64) (bool, error) {
	reset := func() {
		a.idx = make(map[string]entry)
		a.order, a.pages = nil, nil
		a.appended = 0
	}
	if size < int64(headerSize+blockHeaderSize+trailerSize) {
		return false, nil
	}
	t := make([]byte, trailerSize)
	if _, err := a.f.ReadAt(t, size-int64(trailerSize)); err != nil {
		return false, fmt.Errorf("archivestore: %w", err)
	}
	footOff, ok := decodeTrailer(t, a.version)
	if !ok || footOff < int64(headerSize) || footOff+int64(blockHeaderSize) > size-int64(trailerSize) {
		return false, nil
	}
	footLen := size - int64(trailerSize) - footOff
	typ, payload, err := a.readBlockAt(entry{off: footOff, n: int32(footLen)})
	if err != nil || typ != blockFooter {
		return false, nil
	}
	appended, pages, err := decodeFooterPayload(payload)
	if err != nil {
		return false, nil
	}
	// The footer's appended count sizes the index up front: growing a
	// 10^5-entry map incrementally costs more than loading it.
	a.idx = make(map[string]entry, appended)
	a.order = make([]string, 0, appended)
	for _, p := range pages {
		if p < int64(headerSize) || p >= footOff {
			reset()
			return false, nil
		}
		ptyp, ppayload, perr := a.readBlockBounded(p, footOff)
		if perr != nil || ptyp != blockIndex {
			reset()
			return false, nil
		}
		if err := decodeIndexPayload(ppayload, func(exp, hash string, rep int, e entry) error {
			a.addIndex(exp, hash, rep, e)
			return nil
		}); err != nil {
			reset()
			return false, nil
		}
	}
	a.appended = appended
	a.pages = pages
	a.dataEnd = footOff
	a.needTruncate = true
	return true, nil
}

// recover rebuilds the index by scanning blocks from the header,
// truncating the file past the last valid block — the crash-recovery
// path a missing or corrupt footer routes through.
func (a *Archive) recover(size int64) error {
	data, err := os.ReadFile(a.path)
	if err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	a.dataEnd = a.scanBlocks(data)
	if a.dataEnd < size {
		a.torn = true
		if err := a.f.Truncate(a.dataEnd); err != nil {
			return fmt.Errorf("archivestore: truncating torn tail: %w", err)
		}
	}
	a.dirty = true // the on-disk file has no (valid) footer until Close
	return nil
}

// scanBlocks walks data from the header, indexing record blocks and
// noting index pages, and returns the offset of the first byte that is
// not part of a complete valid data block — the recovery truncation
// point. A footer block ends the walk without being indexed, so Close
// rewrites it.
func (a *Archive) scanBlocks(data []byte) int64 {
	off := int64(headerSize)
	for {
		typ, payload, ok := parseBlock(data, off)
		if !ok {
			return off
		}
		blockLen := int64(blockHeaderSize) + int64(len(payload))
		switch typ {
		case blockRecord, blockRecordZ, blockRecordB:
			exp, hash, rep, err := recordPayloadKey(typ, payload)
			if err != nil {
				return off // checksummed but malformed: treat as torn here
			}
			e := entry{off: off, n: int32(blockLen)}
			a.addIndex(exp, hash, rep, e)
			a.pending = append(a.pending, pendingEntry{exp: exp, hash: hash, rep: rep, entry: e})
			a.appended++
		case blockIndex:
			a.pages = append(a.pages, off)
			a.pending = a.pending[:0]
		case blockFooter:
			return off
		}
		off += blockLen
	}
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

// readBlockAt reads and validates the block at e, via the open handle or
// a transient read-only reopen after Close.
func (a *Archive) readBlockAt(e entry) (typ byte, payload []byte, err error) {
	buf := make([]byte, e.n)
	r := a.f
	if r == nil {
		rf, err := os.Open(a.path)
		if err != nil {
			return 0, nil, fmt.Errorf("archivestore: %w", err)
		}
		defer rf.Close()
		r = rf
	}
	if _, err := r.ReadAt(buf, e.off); err != nil {
		return 0, nil, fmt.Errorf("archivestore: %s: reading block at %d: %w", a.path, e.off, err)
	}
	typ, payload, ok := parseBlock(buf, 0)
	if !ok || int64(blockHeaderSize)+int64(len(payload)) != int64(e.n) {
		return 0, nil, fmt.Errorf("archivestore: %s: corrupt block at offset %d", a.path, e.off)
	}
	return typ, payload, nil
}

// readBlockBounded reads the block starting at off, whose length is not
// known in advance, refusing to read past limit.
func (a *Archive) readBlockBounded(off, limit int64) (typ byte, payload []byte, err error) {
	hdr := make([]byte, blockHeaderSize)
	if _, err := a.f.ReadAt(hdr, off); err != nil {
		return 0, nil, fmt.Errorf("archivestore: %w", err)
	}
	n := int64(binary.LittleEndian.Uint32(hdr[1:5]))
	if n > maxPayload || off+int64(blockHeaderSize)+n > limit {
		return 0, nil, fmt.Errorf("archivestore: %s: block at %d overruns its bounds", a.path, off)
	}
	return a.readBlockAt(entry{off: off, n: int32(int64(blockHeaderSize) + n)})
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
	case a.torn:
		detail += ", torn tail truncated on open; footer pending until Close"
	default:
		detail += ", unfinalized: footer pending until Close"
	}
	return runstore.Info{Records: a.appended, Distinct: len(a.idx), Torn: a.torn, Detail: detail}
}

// Torn reports whether recovery dropped a torn tail when opening.
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

// readRecord fetches and decodes one record block.
func (a *Archive) readRecord(e entry) (runstore.Record, error) {
	typ, payload, err := a.readBlockAt(e)
	if err != nil {
		return runstore.Record{}, err
	}
	if !isRecordBlock(typ) {
		return runstore.Record{}, fmt.Errorf("archivestore: %s: block at %d is not a record", a.path, e.off)
	}
	return decodeRecordBlock(typ, payload)
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
// block written and fsynced before Append returns, so a crash leaves at
// most one torn block — exactly what Open's recovery scan truncates.
// Every interval appends, an index page block is interleaved so a later
// finalize covers them.
func (a *Archive) Append(rec runstore.Record) error {
	rec, err := runstore.NormalizeAppend(rec)
	if err != nil {
		return err
	}
	typ, payload, err := appendRecordPayload(nil, a.version, rec) // version is fixed at Open
	if err != nil {
		return err
	}
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return fmt.Errorf("archivestore: archive %s is closed", a.path)
	}
	if a.needTruncate {
		// The first append after opening a finalized archive cuts off the
		// old footer and trailer; they are rewritten by Close.
		if err := a.f.Truncate(a.dataEnd); err != nil {
			return fmt.Errorf("archivestore: %w", err)
		}
		a.needTruncate = false
	}
	block := appendBlock(nil, typ, payload)
	if _, err := a.f.WriteAt(block, a.dataEnd); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	if err := a.f.Sync(); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	e := entry{off: a.dataEnd, n: int32(len(block))}
	a.dataEnd += int64(len(block))
	a.addIndex(rec.Experiment, rec.Hash, rec.Replicate, e)
	a.pending = append(a.pending, pendingEntry{exp: rec.Experiment, hash: rec.Hash, rep: rec.Replicate, entry: e})
	a.appended++
	a.dirty = true
	if len(a.pending) >= a.interval {
		if err := a.flushIndexPageLocked(); err != nil {
			return err
		}
	}
	return nil
}

// flushIndexPageLocked writes the pending entries as one index page
// block. Pages are derivable from the data blocks, so a crash between a
// record append and its page costs nothing: recovery rebuilds the same
// entries.
func (a *Archive) flushIndexPageLocked() error {
	if len(a.pending) == 0 {
		return nil
	}
	block := appendBlock(nil, blockIndex, encodeIndexPayload(a.pending))
	if _, err := a.f.WriteAt(block, a.dataEnd); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	a.pages = append(a.pages, a.dataEnd)
	a.dataEnd += int64(len(block))
	a.pending = a.pending[:0]
	return nil
}

// Close finalizes and closes the archive: pending index entries are
// flushed as a final page, and a footer block plus trailer are written
// and fsynced so the next Open is O(index). Reads keep working after
// Close via transient read-only reopens; Append fails.
func (a *Archive) Close() error {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.f == nil {
		return nil
	}
	f := a.f
	if !a.dirty {
		a.f = nil
		return f.Close()
	}
	if err := a.flushIndexPageLocked(); err != nil {
		f.Close()
		a.f = nil
		return err
	}
	footOff := a.dataEnd
	tail := appendBlock(nil, blockFooter, encodeFooterPayload(a.appended, a.pages))
	tail = append(tail, encodeTrailer(footOff, a.version)...)
	if _, err := f.WriteAt(tail, footOff); err != nil {
		f.Close()
		a.f = nil
		return fmt.Errorf("archivestore: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		a.f = nil
		return fmt.Errorf("archivestore: %w", err)
	}
	a.f = nil
	a.dirty = false
	if err := f.Close(); err != nil {
		return fmt.Errorf("archivestore: %w", err)
	}
	return nil
}
