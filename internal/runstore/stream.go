package runstore

import (
	"iter"
	"math"
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
// when its stored form is what the codec writes (codec.entry).
type SourceEntry struct {
	Experiment string
	Hash       string
	Replicate  int
	Row        int
	// Fp fingerprints the measurement (assignment + responses, Row
	// excluded) so superseding appends that changed the measurement are
	// detectable without re-reading either record.
	Fp  uint64
	Ext Extent
	// key is the lookup key, built once when a reader makes the entry
	// (Fields.Entry, entryOf): every index pass asks for it at least twice.
	// An entry put together elsewhere leaves it empty and Key derives it.
	key string
	// canonical says the stored payload is byte for byte what its codec
	// writes for the record it decodes to, so a rewrite into the same
	// codec may copy the frame instead of re-making it. Only a journal
	// reader sets it.
	canonical bool
}

// Key returns the entry's runstore lookup key.
func (e SourceEntry) Key() string {
	if e.key != "" {
		return e.key
	}
	return Key(e.Experiment, e.Hash, e.Replicate)
}

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
	// included — as lightweight entries. A torn trailing frame ends the
	// iteration without error (Info reports it); a corrupt interior
	// frame yields the error and stops.
	Entries() iter.Seq2[SourceEntry, error]
	// Fields iterates every record in file order — superseded records
	// included — as the fields of the record Read would decode, each frame
	// walked exactly once. Every step yields the same view, refilled: it
	// is valid until the next step (see Fields). Torn tails and corrupt
	// frames are Entries'.
	Fields() iter.Seq2[*Fields, error]
	// Read decodes the record at ext, which must have been yielded by
	// Entries on this reader. Read must be safe for concurrent use —
	// every implementation serves it with a stateless positioned read
	// (ReadAt) — because the merge write pass decodes records on a
	// worker pool.
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
		Experiment: rec.Experiment,
		Hash:       rec.Hash,
		Replicate:  rec.Replicate,
		Row:        rec.Row,
		Fp:         Fingerprint(rec),
		key:        rec.Key(),
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
// Format.Write and friends.
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
// first-appended order, without materializing the record set: an index
// pass sizes the winners, then records decode one at a time — a journal's
// through the rewrite's read-ahead window, so the read pass costs one
// positioned read per 64 KiB, not per record. The file is opened
// read-only and never repaired; a torn trailing frame is dropped exactly
// as Open would drop it. Errors (unreadable file, corrupt interior frame)
// surface in the sequence; iteration stops at the first one. It is the
// reference the warehouse's single-pass ingest is held to.
func ScanFile(path string) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		r, err := OpenSource(path)
		if err != nil {
			yield(Record{}, err)
			return
		}
		defer r.Close()
		winners, _, err := foldEntries(r)
		if err != nil {
			yield(Record{}, err)
			return
		}
		src := newMergeSource(r)
		for _, e := range winners {
			f, err := src.fetch(e, nil, true)
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

// foldEntries consumes a reader's Entries into its last-wins entries in
// first-appended key order — the shape Open's journal index has, at entry
// rather than record cost, and the shape planMerge folds its sources into:
// a key's first entry claims the next slot, a superseding one overwrites
// that slot, and the map holds a position per key, not an entry.
func foldEntries(r SourceReader) (winners []SourceEntry, records int, err error) {
	at := make(map[string]int32)
	for e, eerr := range r.Entries() {
		if eerr != nil {
			return nil, 0, eerr
		}
		records++
		k := e.Key() // not e.key: only a journal reader fills it in
		if pos, seen := at[k]; seen {
			winners[pos] = e
			continue
		}
		at[k] = int32(len(winners))
		winners = append(winners, e)
	}
	return winners, records, nil
}
