package runstore

import (
	"fmt"
	"iter"
	"math"
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
// index: one framelog file whose records are encoded by a codec — JSON
// lines (Open) or checksummed binary frames (OpenBinary). Append and
// Lookup are safe for concurrent use.
type Journal struct {
	mu    sync.Mutex
	log   *framelog.Log
	codec *codec
	recs  map[string]Record
	order []string // keys in file order, for deterministic Scan order
}

// Open opens (creating if absent) the JSONL journal at path, loading
// every complete record. A torn trailing line — a crash mid-append — is
// truncated; a corrupt line anywhere else is an error, because silently
// skipping complete records would turn resume into silent re-execution
// (the recovery rule is framelog's, shared by every log in the repo).
func Open(path string) (*Journal, error) { return open(path, jsonCodec) }

// OpenBinary is Open for the binary encoding (docs/FORMAT.md §4): the
// same store over length-prefixed checksummed frames. A file that is
// not a binary journal is an error.
func OpenBinary(path string) (*Journal, error) { return open(path, binaryCodec) }

func open(path string, c *codec) (*Journal, error) {
	j := &Journal{codec: c, recs: make(map[string]Record)}
	log, err := framelog.Open(path, c.framing, c.visit(func(rec Record, _ Extent) error {
		j.index(rec)
		return nil
	}))
	if err != nil {
		return nil, fmt.Errorf("runstore: %w", err)
	}
	j.log = log
	return j, nil
}

// OpenDir opens the JSONL journal for one experiment under dir, creating
// the directory as needed. The file is <dir>/<sanitized-experiment>.jsonl.
func OpenDir(dir, experiment string) (*Journal, error) {
	return openDir(dir, experiment, jsonCodec)
}

// OpenBinaryDir is OpenDir for the binary encoding; the file is
// <dir>/<sanitized-experiment>.binj.
func OpenBinaryDir(dir, experiment string) (*Journal, error) {
	return openDir(dir, experiment, binaryCodec)
}

func openDir(dir, experiment string, c *codec) (*Journal, error) {
	if experiment == "" {
		return nil, fmt.Errorf("runstore: experiment name required")
	}
	return open(filepath.Join(dir, SanitizeName(experiment)+c.ext), c)
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

func (j *Journal) index(rec Record) {
	k := rec.Key()
	if _, exists := j.recs[k]; !exists {
		j.order = append(j.order, k)
	}
	j.recs[k] = rec // last record wins, like a log-structured store
}

// Path returns the journal's file path.
func (j *Journal) Path() string { return j.log.Path() }

// Torn reports whether a torn trailing record was truncated when opening.
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
	rec, ok := j.recs[Key(experiment, hash, replicate)]
	return rec, ok
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
		if _, ok := j.recs[Key(experiment, hash, n)]; !ok {
			return n
		}
		n++
	}
}

// Scan implements Store: all distinct records in first-appended order,
// one at a time. The key order is snapshotted when iteration starts, so
// a concurrent Append neither blocks nor corrupts an in-flight scan;
// keys appended after the snapshot are not yielded, while a superseding
// append to a snapshotted key may surface in its latest form (records
// are read at yield time — see the Store contract). The journal's
// records live in its in-memory index, so Scan never fails — the error
// slot exists for backends that read from disk mid-iteration.
func (j *Journal) Scan() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		j.mu.Lock()
		keys := make([]string, len(j.order))
		copy(keys, j.order)
		j.mu.Unlock()
		for _, k := range keys {
			j.mu.Lock()
			rec := j.recs[k]
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
// is identical across the journal, the shard store, and the archive.
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
// most one torn record — exactly what Open recovers from. A failed Write
// or Sync poisons the journal (framelog.Log.Commit): every later Append
// or AppendBatch returns that first error until the file is reopened.
func (j *Journal) Append(rec Record) error {
	rec, err := NormalizeAppend(rec)
	if err != nil {
		return err
	}
	bufp := frameBufPool.Get().(*[]byte)
	defer putFrameBuf(bufp)
	if *bufp, err = j.codec.appendFrame(*bufp, rec); err != nil {
		return err
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commit(*bufp, rec)
}

// EncodedBatch is a batch of records validated, canonicalised and
// encoded once, in one codec: the sealed frames a Journal of that codec
// persists (CommitBatch) and, for the same bytes, the body of a wire
// stream in that framing. A holder with two destinations — the collector
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
	b, err := j.codec.encodeBatch(*bufp, recs)
	if err != nil {
		return err
	}
	*bufp = b.data // the pool keeps the buffer the batch grew
	return j.CommitBatch(b)
}

// CommitBatch persists and indexes a batch encoded elsewhere, with one
// Write and one Sync. A batch in another codec than the journal's is
// refused before a byte is written: its frames would be garbage in this
// file. A crash mid-write leaves a prefix of the batch's records and at
// most one torn one, exactly as Append does, and Open recovers the
// intact prefix. A failed Write or Sync indexes nothing from the batch
// and poisons the journal. An empty batch is a no-op.
func (j *Journal) CommitBatch(b *EncodedBatch) error {
	if b.codec != j.codec {
		return fmt.Errorf("runstore: %s: a %s batch cannot be committed to a %s journal", j.log.Path(), b.codec.name, j.codec.name)
	}
	if len(b.recs) == 0 {
		return nil
	}
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.commit(b.data, b.recs...)
}

// commit makes data, the encoding of recs, durable and only then counts
// and indexes them, so nothing from a failed commit is ever served.
// Callers hold j.mu.
func (j *Journal) commit(data []byte, recs ...Record) error {
	if err := j.log.Commit(data); err != nil {
		return err
	}
	metAppends.Add(int64(len(recs)))
	metAppendBytes.Add(int64(len(data)))
	metFsyncs.Inc()
	for _, rec := range recs {
		j.index(rec)
	}
	return nil
}

// Close closes the journal file. Lookup and Scan keep working on the
// in-memory index; Append fails.
func (j *Journal) Close() error {
	j.mu.Lock()
	defer j.mu.Unlock()
	return j.log.Close()
}

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
