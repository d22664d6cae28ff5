package runstore

import "strings"

// Pair is one assignment member of a Fields view.
type Pair struct{ Key, Value []byte }

// Response is one response member of a Fields view.
type Response struct {
	Name  []byte
	Value float64
}

// members is one map of a Fields view: its members in the order they
// were added, the first few held in place — so that a view on a stack
// costs the heap nothing for a record of ordinary width — and all of them
// in a slice of their own once there are more.
type members[T any] struct {
	n    int // how many; -1 when the map is null
	room [8]T
	more []T // every member, once room is full
}

// start empties the list — of a map that is present, or of a null one —
// and reports which.
func (m *members[T]) start(present bool) bool {
	m.n = 0
	if !present {
		m.n = -1
	}
	return present
}

func (m *members[T]) add(v T) {
	switch {
	case m.n < len(m.room):
		m.room[m.n] = v
	case m.n == len(m.room):
		m.more = append(append(m.more[:0], m.room[:]...), v)
	default:
		m.more = append(m.more, v)
	}
	m.n++
}

// list returns the members: nil for a null map, as the map is nil in a
// Record, and empty but not nil for an empty one.
func (m *members[T]) list() []T {
	switch {
	case m.n < 0:
		return nil
	case m.n <= len(m.room):
		return m.room[:m.n]
	}
	return m.more
}

// Fields is one stored record as a codec's walk reads it: every field, no
// map and no string. It is what each codec's one grammar walk fills
// (walkJSON, walkBinary), and the entry scan, the record decode and the
// field pass (SourceReader.Fields) are projections of it.
//
// Lifetime: the byte slices point into the payload that was walked, or —
// in a view a pass owns (NewFields) — the experiment, the hash and the
// assignment into the view's own copy of the cell's identity (cell), so a
// view handed out by a field pass — which refills one view at every step
// — is valid until the pass takes its next step: the rule of a
// framelog.Visit payload. Copy (or Record) what must outlive it, and
// write nothing into it.
//
// A map's members come in key order, strictly ascending — the order both
// codecs write and every hash folds — and a null map is a nil list, as
// it is a nil map in a Record. The hash is never empty: a record stored
// without one has it derived, as Read derives it. A payload that is not
// written this way (escapes, repeated or descending keys, unknown fields,
// no hash) is decoded the long way and flattened into the same shape, so
// a consumer never sees the difference.
type Fields struct {
	Experiment []byte
	Hash       []byte
	Row        int
	Replicate  int

	assignment members[Pair]
	responses  members[Response]
	buf        []byte // a flattened record's strings; the entry scan's re-encoding
	cell       *cell  // nil: a one-shot view, which predicts nothing
}

// NewFields returns a view for a pass that walks many payloads into it.
// Such a view predicts each payload's design cell from the last one it
// recognised: a payload that spells the same experiment, row, hash and
// assignment — the next replicate of a cell, in a file written with a
// fixed replicate budget or by Merge — costs its walk the replicate and
// the responses only, and its fingerprint and entry what they fold of
// those. Any other payload costs a full walk, as in a one-shot view.
func NewFields() *Fields { return &Fields{cell: new(cell)} }

// cell is what a view a pass owns keeps of the last payload its walk
// recognised: a copy of the bytes that spell the payload's design cell,
// in two spans with the replicate between them, which the view's
// experiment, hash and assignment point into. A walk whose payload holds
// both spans where that payload held them keeps those fields as they are
// and walks the rest (a hit); any other payload is walked in full, and
// its spans taken in their place when the walk recognises it. A walk
// that recognises nothing, or a flatten, forgets them.
//
// JSON's spans are {"experiment":…,"row":N,"replicate": and
// ,"hash":…,"assignment":…,"responses": — the binary payload's its
// experiment and hash strings, and its row varint through its
// assignment. Spans are reused only by the walk that took them, and a
// JSON walk that asks for the canonical verdict only from spans a
// canonical walk accepted.
type cell struct {
	ident     []byte // the two spans, one after the other
	split     int    // where the second span starts in ident
	walk      byte   // the walk that took the spans (jsonSpans, binarySpans); 0: none
	canonical bool   // JSON: a canonical walk accepted the spans; binary: they are canonical
	folded    bool   // fold holds the assignment's part of Fingerprint
	fold      uint64
	key       string // CellKey, once an entry needed it; "" before
}

// The walks a cell's spans come from.
const (
	jsonSpans byte = 1 + iota
	binarySpans
)

// spans returns the spans walk may reuse: none for a one-shot view, for
// spans another walk took, or for a canonical walk's question about
// spans only a lenient one accepted.
func (p *cell) spans(walk byte, canonical bool) (head, tail []byte, ok bool) {
	if p == nil || p.walk != walk || canonical && !p.canonical {
		return nil, nil, false
	}
	return p.ident[:p.split], p.ident[p.split:], true
}

// walked is how a walk of payload ends in a view: hit, or not, and
// whether it recognised the payload. A walk that missed and recognised
// takes the payload's spans — payload[:head] and payload[from:to] — and
// points the experiment, the hash and the assignment into its copy of
// them, where they stay while walks hit.
func (f *Fields) walked(payload []byte, ok, hit bool, walk byte, canonical bool, head, from, to int) {
	p := f.cell
	switch {
	case p == nil:
		return
	case !ok:
		p.forget()
		return
	case hit:
		return
	}
	p.ident = append(append(p.ident[:0], payload[:head]...), payload[from:to]...)
	*p = cell{ident: p.ident, split: head, walk: walk, canonical: canonical}
	// A field's offset in payload, read off capacities: every one of them
	// is payload[i:j] for some i, so cap(payload)-cap(field) is i.
	rebase := func(b []byte) []byte {
		at := cap(payload) - cap(b)
		if at > head { // past the first span, so in the second
			at += head - from
		}
		return p.ident[at : at+len(b)]
	}
	f.Experiment, f.Hash = rebase(f.Experiment), rebase(f.Hash)
	pairs := f.assignment.list()
	for i := range pairs {
		pairs[i] = Pair{rebase(pairs[i].Key), rebase(pairs[i].Value)}
	}
}

// forget drops the spans, and what was folded and built from them.
func (p *cell) forget() { *p = cell{ident: p.ident} }

// Assignment returns the record's assignment, in key order.
func (f *Fields) Assignment() []Pair { return f.assignment.list() }

// Responses returns the record's responses, in name order.
func (f *Fields) Responses() []Response { return f.responses.list() }

// Fingerprint is runstore.Fingerprint of the record f holds. A view a
// pass owns folds a cell's assignment once.
func (f *Fields) Fingerprint() uint64 {
	h := f.assignmentFold()
	for _, r := range f.Responses() {
		h = fnvResponse(h, r.Name, r.Value)
	}
	return h
}

// assignmentFold is Fingerprint's state once it has folded the
// assignment.
func (f *Fields) assignmentFold() uint64 {
	p := f.cell
	if p != nil && p.folded {
		return p.fold
	}
	h := fnvOffset64
	for _, a := range f.Assignment() {
		h = fnvString(fnvString(h, a.Key), a.Value)
	}
	h = (h ^ 1) * fnvPrime64
	if p != nil && p.walk != 0 {
		p.fold, p.folded = h, true
	}
	return h
}

// Entry returns the index entry of the record f holds, extent aside. It
// allocates once, the cell's key, which the experiment and the hash are
// cut from — in a view a pass owns, once per cell.
func (f *Fields) Entry() SourceEntry {
	return SourceEntry{
		cell:      f.cellKey(),
		exp:       uint32(len(f.Experiment)),
		Replicate: f.Replicate,
		Row:       f.Row,
		Fp:        f.Fingerprint(),
	}
}

// cellKey returns CellKey of the record f holds.
func (f *Fields) cellKey() string {
	p := f.cell
	if p != nil && p.key != "" {
		return p.key
	}
	var key strings.Builder
	key.Grow(len(f.Experiment) + 1 + len(f.Hash))
	key.Write(f.Experiment)
	key.WriteByte('/')
	key.Write(f.Hash)
	if p != nil && p.walk != 0 {
		p.key = key.String()
	}
	return key.String()
}

// Record returns the record f holds, in memory of its own: the two maps,
// and one allocation that every string of the record is cut from.
func (f *Fields) Record() Record {
	assignment, responses := f.Assignment(), f.Responses()
	n := len(f.Experiment) + len(f.Hash)
	for _, p := range assignment {
		n += len(p.Key) + len(p.Value)
	}
	for _, r := range responses {
		n += len(r.Name)
	}
	var b strings.Builder
	b.Grow(n)
	b.Write(f.Experiment)
	b.Write(f.Hash)
	for _, p := range assignment {
		b.Write(p.Key)
		b.Write(p.Value)
	}
	for _, r := range responses {
		b.Write(r.Name)
	}
	rest := b.String()
	cut := func(n int) string {
		s := rest[:n]
		rest = rest[n:]
		return s
	}
	rec := Record{Experiment: cut(len(f.Experiment)), Row: f.Row, Replicate: f.Replicate, Hash: cut(len(f.Hash))}
	if assignment != nil {
		rec.Assignment = make(map[string]string, len(assignment))
		for _, p := range assignment {
			k := cut(len(p.Key))
			rec.Assignment[k] = cut(len(p.Value))
		}
	}
	if responses != nil {
		rec.Responses = make(map[string]float64, len(responses))
		for _, r := range responses {
			rec.Responses[cut(len(r.Name))] = r.Value
		}
	}
	return rec
}

// flatten fills f from a decoded record: its strings copied into the
// view's buffer, its maps laid out in key order.
func (f *Fields) flatten(rec Record) {
	if f.cell != nil {
		f.cell.forget() // the fields no longer point into its spans
	}
	f.buf = f.buf[:0]
	str := func(s string) []byte {
		// A buffer that grows moves; what was cut from it before stays
		// where it was, and stays right.
		f.buf = append(f.buf, s...)
		return f.buf[len(f.buf)-len(s):]
	}
	f.Experiment, f.Hash = str(rec.Experiment), str(rec.Hash)
	f.Row, f.Replicate = rec.Row, rec.Replicate
	var stack [8]string
	f.assignment.start(rec.Assignment != nil)
	for _, k := range sortedKeys(stack[:0], rec.Assignment) {
		f.assignment.add(Pair{str(k), str(rec.Assignment[k])})
	}
	f.responses.start(rec.Responses != nil)
	for _, k := range sortedKeys(stack[:0], rec.Responses) {
		f.responses.add(Response{str(k), rec.Responses[k]})
	}
}
