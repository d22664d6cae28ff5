package runstore

import (
	"iter"
	"math"
	"strconv"
)

// Extent locates one record's encoded bytes inside a store file, in the
// file's own framing (a JSONL line, an archive record block). Extents are
// only meaningful to the SourceReader that yielded them.
type Extent struct {
	Off int64 // byte offset of the record's frame
	Len int64 // frame length in bytes
}

// SourceEntry is the lightweight per-record metadata a streaming index
// pass yields: enough to key, order canonically, and compare
// measurements without retaining the record — which no reader builds
// when its stored form is what the codec writes (codec.entry). It holds
// one string, its cell's key (CellKey), and cuts the experiment and the
// hash from it; a pass's view builds that string once per cell
// (Fields.Entry), so the entries of a cell's replicates share it, and an
// index pass keeps one entry per stored record and no string per record.
// The record's own key is the cell's and the replicate: Key puts it
// together for the caller that needs it as a string.
type SourceEntry struct {
	cell      string // CellKey(experiment, hash)
	Replicate int
	Row       int
	// Fp fingerprints the measurement (assignment + responses, Row
	// excluded) so superseding appends that changed the measurement are
	// detectable without re-reading either record.
	Fp  uint64
	Ext Extent
	exp uint32 // the experiment's length: cell[:exp]
	// canonical says the stored payload is byte for byte what its codec
	// writes for the record it decodes to, so a rewrite into the same
	// codec may copy the frame instead of re-making it. Only a journal
	// reader sets it.
	canonical bool
}

// Key returns the entry's runstore lookup key, built for the call. Two
// entries have one key exactly when they have one cell and one
// replicate: the replicate's digits hold no '/'.
func (e SourceEntry) Key() string { return e.cell + "/" + strconv.Itoa(e.Replicate) }

// Experiment returns the experiment of the entry's record.
func (e SourceEntry) Experiment() string { return e.cell[:e.exp] }

// Hash returns the assignment hash of the entry's record.
func (e SourceEntry) Hash() string { return e.cell[e.exp+1:] }

// SourceReader is the streaming, random-access view of one store file
// that Merge, Compact, LoadRecords, Inspect and the warehouse consume.
// Entries and Fields are two projections of one forward pass in file
// order through buffered sequential reads — the index entry of each
// frame, or its fields in a reused view — and Read decodes a single
// record by the extent Entries yielded for it. Neither pass builds a
// record for a frame stored the way its codec writes it. A consumer that
// wants something of every record reads Fields and resolves last-wins
// itself, walking each frame once; one that wants few of many (a rewrite
// that copies canonical frames) indexes with Entries and fetches by
// extent. Every Format brings one (Format.OpenReader) — both journal
// encodings share fileSource — and OpenSource dispatches.
type SourceReader interface {
	// Entries iterates every record in file order — superseded records
	// included — as lightweight entries, in one pass front to back. A
	// torn trailing frame ends the iteration without error (Info reports
	// it); a corrupt interior frame yields the error and stops. Merge's
	// and Compact's index pass reads a line-framed journal in sections
	// instead, each by the scan under Entries, to the same entries, Info
	// and error.
	Entries() iter.Seq2[SourceEntry, error]
	// Fields iterates every record in file order — superseded records
	// included — as the fields of the record Read would decode, each frame
	// walked exactly once. Every step yields the same view, refilled: it
	// is valid until the next step (see Fields). Torn tails and corrupt
	// frames are Entries'.
	Fields() iter.Seq2[*Fields, error]
	// Read decodes the record at ext, which must have been yielded by
	// Entries on this reader. Read need not be safe for concurrent use:
	// the merge write pass fetches its winners one at a time.
	Read(ext Extent) (Record, error)
	// Info reports the file's shape. Records/Torn are complete only
	// after Entries has been fully consumed.
	Info() Info
	// Close releases the reader's file handle.
	Close() error
}

// OpenSource opens the store file at path for streaming read-only
// access, dispatching on format by content sniffing (the JSONL journal,
// having no magic, is the fallback). The file is never created,
// repaired, or truncated.
func OpenSource(path string) (SourceReader, error) {
	return formatOf(path).OpenReader(path)
}

// Fingerprint hashes a record's measurement — its assignment and
// responses, with the informational Row field deliberately excluded, so
// a re-numbered design never reads as a conflicting measurement. Two
// records with equal assignments and responses fingerprint identically.
func Fingerprint(rec Record) uint64 {
	h := fnvAssignment(fnvOffset64, rec.Assignment)
	h = (h ^ 1) * fnvPrime64
	var stack [8]string
	for _, k := range sortedKeys(stack[:0], rec.Responses) {
		h = fnvResponse(h, k, rec.Responses[k])
	}
	return h
}

// fnvResponse folds one response into h; Fingerprint and
// Fields.Fingerprint fold the same responses in the same (key) order.
func fnvResponse[S string | []byte](h uint64, name S, v float64) uint64 {
	h = fnvString(h, name)
	if v == 0 {
		v = 0 // fold -0 into +0: they compare equal as measurements
	}
	bits := math.Float64bits(v)
	for i := 0; i < 8; i++ {
		h = (h ^ uint64(byte(bits>>(8*i)))) * fnvPrime64
	}
	return h
}

// entryOf builds the index entry for one decoded record.
func entryOf(rec Record) SourceEntry {
	return SourceEntry{
		cell:      CellKey(rec.Experiment, rec.Hash),
		exp:       uint32(len(rec.Experiment)),
		Replicate: rec.Replicate,
		Row:       rec.Row,
		Fp:        Fingerprint(rec),
	}
}

// Collect materializes a record sequence into a slice, stopping at the
// first error. It is the bridge for the few true-materialization sites
// (summaries, gates, verification); everything else should consume the
// sequence incrementally.
func Collect(seq iter.Seq2[Record, error]) ([]Record, error) {
	var out []Record
	for rec, err := range seq {
		if err != nil {
			return nil, err
		}
		out = append(out, rec)
	}
	return out, nil
}

// Seq adapts a record slice to the streaming sequence shape consumed by
// Format.Write and friends. Shipped writers stream from a store; the
// archivestore, merge and warehouse tests write a slice through it.
func Seq(recs []Record) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for _, rec := range recs {
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// ScanFile streams the distinct last-wins records of a store file —
// journal or registered-format archive — in the file's deterministic
// first-appended order, without materializing the record set: Compact's
// index pass (a line-framed journal read in sections on every core, then
// folded) sizes the winners, then records decode one at a time — a
// journal's through the rewrite's read-ahead window, so the read pass
// costs one positioned read per 64 KiB, not per record, read forwards or
// backwards. The file is opened read-only and never repaired; a torn
// trailing frame is dropped exactly as Open would drop it. Errors
// (unreadable file, corrupt interior frame) surface in the sequence;
// iteration stops at the first one. It is the reference the warehouse's
// single-pass ingest is held to.
func ScanFile(path string) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		plan, err := scanSources([]string{path})
		if err != nil {
			yield(Record{}, err)
			return
		}
		defer plan.Close()
		plan.fold([]string{path})
		s := plan.sources[0]
		for _, e := range s.winners {
			f, err := s.fetch(e, nil)
			if err != nil {
				yield(Record{}, err)
				return
			}
			if !yield(f.rec, nil) {
				return
			}
		}
	}
}
