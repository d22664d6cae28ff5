package runstore

import (
	"fmt"
	"iter"
	"math"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"

	"repro/internal/framelog"
)

// Record is one journaled execution unit: the responses measured for one
// replicate of one design row of one experiment.
type Record struct {
	Experiment string             `json:"experiment"`
	Row        int                `json:"row"` // design row index at record time (informational)
	Replicate  int                `json:"replicate"`
	Hash       string             `json:"hash"` // AssignmentHash of Assignment
	Assignment map[string]string  `json:"assignment"`
	Responses  map[string]float64 `json:"responses"`
}

// Key returns the journal lookup key for a unit of work. It is built by
// concatenation, not fmt, because every record indexed on open pays this
// cost — the archive backend's O(index) open budget is measured in
// nanoseconds per entry.
func Key(experiment, hash string, replicate int) string {
	return experiment + "/" + hash + "/" + strconv.Itoa(replicate)
}

// Key returns the record's own lookup key.
func (r Record) Key() string { return Key(r.Experiment, r.Hash, r.Replicate) }

// CellKey identifies one design cell — all replicates of one assignment
// of one experiment. It is the identity the scheduler and the adaptive
// replication controller exchange, so one controller can serve several
// experiments without state bleeding across them.
func CellKey(experiment, hash string) string {
	return experiment + "/" + hash
}

// AssignmentHash computes a stable hex digest of a factor-level
// assignment: FNV-1a over the sorted key=value pairs. Two design rows
// with the same assignment hash identically regardless of row order, so
// journals stay valid when a design is extended or reordered.
func AssignmentHash(a map[string]string) string {
	h := fnvAssignment(fnvOffset64, a)
	var hex [16]byte
	for i := len(hex) - 1; i >= 0; i-- {
		hex[i] = "0123456789abcdef"[h&0xf]
		h >>= 4
	}
	return string(hex[:])
}

// FNV-1a, 64 bit, written out: AssignmentHash and Fingerprint run once
// per record in every index pass and every append, and hash/fnv's
// Hash64 costs an allocation and a []byte conversion per Write.
const (
	fnvOffset64 uint64 = 14695981039346656037
	fnvPrime64  uint64 = 1099511628211
)

// fnvString folds s and a terminating zero byte into h. A Fields view
// hashes strings it has only as bytes of the payload.
func fnvString[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h * fnvPrime64 // (h ^ 0) * prime
}

// sortedKeys appends m's keys to buf and sorts them in byte order — the
// order every deterministic walk of a record's maps uses (both codecs,
// both hashes). Callers pass a small array on their stack, so a record
// of ordinary width sorts without touching the heap.
func sortedKeys[V any](buf []string, m map[string]V) []string {
	for k := range m {
		buf = append(buf, k)
	}
	slices.Sort(buf)
	return buf
}

// fnvAssignment folds an assignment into h as its sorted key\0value\0
// pairs — the byte sequence AssignmentHash and Fingerprint share.
func fnvAssignment(h uint64, a map[string]string) uint64 {
	var stack [8]string
	for _, k := range sortedKeys(stack[:0], a) {
		h = fnvString(fnvString(h, k), a[k])
	}
	return h
}

// Journal is an append-only run store with an in-memory last-wins
// index: one framelog file of JSON lines. Every method is safe for
// concurrent use. The records Lookup and Scan serve are read-only: the
// replicates of one cell, as Open decodes them, share one assignment map.
type Journal struct {
	log  *framelog.Log
	mu   sync.Mutex // guards recs and slot; taken inside the log's lock
	recs []Record   // the distinct records, in first-appended order
	slot map[key]int
}

// key is a journal's index key: Key(experiment, hash, replicate) as an
// identity, without building its string. Names without a '/' are keyed
// by their parts, which Key's string tells apart. A record whose
// experiment or hash holds one is keyed by that string, so records whose
// Key strings are equal stay one unit, as every reader of a file folds
// them; such a key's experiment holds a '/', so it is never equal to a
// key by parts.
type key struct {
	experiment, hash string
	replicate        int
}

func keyOf(experiment, hash string, replicate int) key {
	if strings.IndexByte(experiment, '/') >= 0 || strings.IndexByte(hash, '/') >= 0 {
		return key{experiment: Key(experiment, hash, replicate)}
	}
	return key{experiment, hash, replicate}
}

// Open opens (creating if absent) the JSONL journal at path, loading
// every complete record. A torn trailing line — a crash mid-append — is
// truncated; a corrupt line anywhere else is an error, because silently
// skipping complete records would turn resume into silent re-execution
// (the recovery rule is framelog's, shared by every log in the repo).
// The replay collects the records in file order, and the index is built
// over them once it is done.
func Open(path string) (*Journal, error) {
	j := &Journal{}
	var size int64
	if st, err := os.Stat(path); err == nil {
		size = st.Size()
	}
	log, err := framelog.Open(path, jsonCodec.framing, jsonCodec.visit(func(rec Record, ext Extent) error {
		if j.recs == nil {
			// One experiment's lines are of a size, so the first says how
			// many the file holds. Every line Append writes is longer than
			// minLine, which bounds what a short first line can reserve.
			j.recs = make([]Record, 0, size/max(ext.Len+1, minLine)+1)
		}
		j.recs = append(j.recs, rec)
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	j.log = log
	j.build()
	return j, nil
}

// minLine is shorter than the line AppendJSON writes for any record: its
// six fields' names and punctuation, a 16-digit hash and the newline.
const minLine = 64

// build indexes the records the replay read: one map, sized once, and
// recs cut down in place to the distinct records in first-appended order,
// each the last one stored under its key.
func (j *Journal) build() {
	j.slot = make(map[key]int, len(j.recs))
	n := 0
	for _, rec := range j.recs {
		k := keyOf(rec.Experiment, rec.Hash, rec.Replicate)
		if i, ok := j.slot[k]; ok {
			j.recs[i] = rec
			continue
		}
		j.slot[k] = n
		j.recs[n] = rec
		n++
	}
	clear(j.recs[n:])
	j.recs = j.recs[:n]
}

// OpenDir opens the JSONL journal for one experiment under dir, creating
// the directory as needed. The file is <dir>/<sanitized-experiment>.jsonl.
func OpenDir(dir, experiment string) (*Journal, error) {
	if experiment == "" {
		return nil, fmt.Errorf("runstore: experiment name required")
	}
	return Open(filepath.Join(dir, SanitizeName(experiment)+jsonCodec.ext))
}

// SanitizeName maps an experiment name to a filesystem-safe file stem.
func SanitizeName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	if b.Len() == 0 {
		return "journal"
	}
	return b.String()
}

// index makes rec the record of its key: last wins, like a
// log-structured store.
func (j *Journal) index(rec Record) {
	k := keyOf(rec.Experiment, rec.Hash, rec.Replicate)
	if i, ok := j.slot[k]; ok {
		j.recs[i] = rec
		return
	}
	j.slot[k] = len(j.recs)
	j.recs = append(j.recs, rec)
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.log.Path() }

// Torn reports whether a torn trailing record was truncated when opening.
// Inspect reports the same thing for a file; the recovery tests of
// runstore, sched and the collector client ask the open journal.
func (j *Journal) Torn() bool { return j.log.Torn() }

// Len returns the number of distinct journaled units.
func (j *Journal) Len() int {
	j.mu.Lock()
	defer j.mu.Unlock()
	return len(j.recs)
}

// Lookup returns the journaled record for a unit, if present.
func (j *Journal) Lookup(experiment, hash string, replicate int) (Record, bool) {
	j.mu.Lock()
	defer j.mu.Unlock()
	i, ok := j.slot[keyOf(experiment, hash, replicate)]
	if !ok {
		return Record{}, false
	}
	return j.recs[i], true
}

// ReplicateCount returns how many contiguous replicates (0..n-1) of one
// cell the journal holds — the warm-start budget already spent on it.
// A gap stops the count: an adaptive resume must extend a contiguous
// replicate prefix, never fill holes, or the replicate set (and with it
// every downstream CI) would depend on which run wrote which record.
func (j *Journal) ReplicateCount(experiment, hash string) int {
	j.mu.Lock()
	defer j.mu.Unlock()
	n := 0
	for {
		if _, ok := j.slot[keyOf(experiment, hash, n)]; !ok {
			return n
		}
		n++
	}
}

// Scan implements Store: all distinct records in first-appended order,
// one at a time. The key set is snapshotted when iteration starts — as
// the number of distinct records, since a key keeps its slot and a new
// one is appended after the last — so a concurrent Append neither blocks
// nor corrupts an in-flight scan; keys appended after the snapshot are
// not yielded, while a superseding append to a snapshotted key may
// surface in its latest form (records are read at yield time — see the
// Store contract). The journal's records live in its in-memory index, so
// Scan never fails — the error slot exists for backends that read from
// disk mid-iteration.
func (j *Journal) Scan() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		j.mu.Lock()
		n := len(j.recs)
		j.mu.Unlock()
		for i := 0; i < n; i++ {
			j.mu.Lock()
			rec := j.recs[i]
			j.mu.Unlock()
			metScanRecords.Inc()
			if !yield(rec, nil) {
				return
			}
		}
	}
}

// NormalizeAppend validates a record for appending and fills its derived
// fields (an empty Hash is computed from the Assignment). Every Store
// backend funnels Append through it, so the set of records a store
// accepts — named experiment, non-negative replicate, finite responses —
// is identical across the journal, the archive, and the worker's remote
// store.
func NormalizeAppend(rec Record) (Record, error) {
	if rec.Experiment == "" {
		return rec, fmt.Errorf("runstore: record needs an experiment name")
	}
	if rec.Replicate < 0 {
		return rec, fmt.Errorf("runstore: record replicate %d < 0", rec.Replicate)
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	for name, v := range rec.Responses {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return rec, fmt.Errorf("runstore: record response %q is non-finite (%v)", name, v)
		}
	}
	return rec, nil
}

// Append validates, persists, and indexes one record. Its encoding is
// written with a single Write call followed by Sync, so a crash leaves at
// most one torn record — exactly what Open recovers from. Concurrent
// Appends overlap their syncs (framelog.Log.Commit), and each record is
// indexed once it is settled, in file order. A failed Write or Sync
// poisons the journal: every later Append or AppendBatch returns that
// first error until the file is reopened.
func (j *Journal) Append(rec Record) error {
	rec, err := NormalizeAppend(rec)
	if err != nil {
		return err
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	if *bufp, err = jsonCodec.appendFrame(*bufp, rec); err != nil {
		return err
	}
	return j.commit(*bufp, rec)
}

// EncodedBatch is a batch of records validated, canonicalised and
// encoded once, in one codec: the body of a wire stream in that framing
// and, for a batch in the JSON line framing, the lines a Journal persists
// (CommitBatch). A holder with two destinations — the collector
// worker's spool and its ingest POST — makes the bytes once for both.
// It is immutable once built.
type EncodedBatch struct {
	codec *codec
	recs  []Record // normalized, in batch order
	data  []byte   // their frames, back to back
}

// EncodeBatch validates recs (NormalizeAppend, into a fresh slice) and
// encodes them in the JSON line framing — a JSONL Journal's bytes and
// the NDJSON wire's. The first invalid record fails all of it.
func EncodeBatch(recs []Record) (*EncodedBatch, error) { return jsonCodec.encodeBatch(nil, recs) }

// EncodeBatchBinary is EncodeBatch for the binary framing.
func EncodeBatchBinary(recs []Record) (*EncodedBatch, error) {
	return binaryCodec.encodeBatch(nil, recs)
}

// encodeBatch is EncodeBatch in this codec, appending the frames to dst.
func (c *codec) encodeBatch(dst []byte, recs []Record) (*EncodedBatch, error) {
	b := &EncodedBatch{codec: c, recs: make([]Record, len(recs)), data: dst}
	for i, rec := range recs {
		rec, err := NormalizeAppend(rec)
		if err != nil {
			return nil, err
		}
		if b.data, err = c.appendFrame(b.data, rec); err != nil {
			return nil, err
		}
		if i == 0 && dst == nil {
			// One experiment's records are of a size: the first one says
			// how much room the rest need.
			b.data = slices.Grow(b.data, len(b.data)*(len(recs)-1))
		}
		b.recs[i] = rec
	}
	return b, nil
}

// Len returns the number of records in the batch.
func (b *EncodedBatch) Len() int { return len(b.recs) }

// Records returns the batch's records as normalized. Read-only.
func (b *EncodedBatch) Records() []Record { return b.recs }

// Bytes returns the batch's encoding: each record's frame, in order —
// the bytes the same records appended one by one would persist.
// Read-only.
func (b *EncodedBatch) Bytes() []byte { return b.data }

// WireType returns the media type of a wire stream carrying Bytes.
func (b *EncodedBatch) WireType() string { return b.codec.wireType }

// AppendBatch implements BatchAppender: it validates, persists, and
// indexes a batch of records with a single Write call followed by a
// single Sync — the group-commit primitive: N records cost one fsync
// instead of N. It is "encode, then CommitBatch": validation runs over
// the whole batch before any byte is written, so a rejected batch leaves
// nothing behind. An empty batch is a no-op.
func (j *Journal) AppendBatch(recs []Record) error {
	if len(recs) == 0 {
		return nil
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	b, err := jsonCodec.encodeBatch(*bufp, recs)
	if err != nil {
		return err
	}
	*bufp = b.data // the pool keeps the buffer the batch grew
	return j.CommitBatch(b)
}

// CommitBatch persists and indexes a batch encoded elsewhere, with one
// Write and one Sync. A batch in the binary framing is refused before a
// byte is written: its frames would be garbage in this file. A crash
// mid-write leaves a prefix of the batch's records and at
// most one torn one, exactly as Append does, and Open recovers the
// intact prefix. A failed Write or Sync indexes nothing from the batch
// and poisons the journal. An empty batch is a no-op.
func (j *Journal) CommitBatch(b *EncodedBatch) error {
	if b.codec != jsonCodec {
		return fmt.Errorf("runstore: %s: a %s batch cannot be committed to a journal", j.log.Path(), b.codec.name)
	}
	if len(b.recs) == 0 {
		return nil
	}
	return j.commit(b.data, b.recs...)
}

// commit makes data, the encoding of recs, durable and counts and indexes
// them once the log settles it — in file order, so the live last-wins
// view is the one a reopen serves, and nothing from a failed commit is
// ever served.
func (j *Journal) commit(data []byte, recs ...Record) error {
	n := int64(len(data))
	return j.log.Commit(data, func() {
		metAppends.Add(int64(len(recs)))
		metAppendBytes.Add(n)
		metFsyncs.Inc()
		j.mu.Lock()
		for _, rec := range recs {
			j.index(rec)
		}
		j.mu.Unlock()
	})
}

// Close closes the journal file once the appends in flight are settled
// or failed. Lookup and Scan keep working on the in-memory index; Append
// fails.
func (j *Journal) Close() error { return j.log.Close() }

// LoadRecords reads every complete record from an existing journal (or
// registered-format archive) file without opening it for writing — the
// file is never created, repaired, or otherwise touched, so diff/report
// tooling works on read-only artifacts. A torn trailing line is ignored,
// as Open would truncate it. It is Collect over ScanFile: callers that
// do not need the whole slice at once should range over ScanFile
// directly.
func LoadRecords(path string) ([]Record, error) {
	return Collect(ScanFile(path))
}
