package runstore

import (
	"strconv"
	"strings"
)

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
// Lifetime: the byte slices point into the payload that was walked, so a
// view handed out by a field pass — which refills one view at every step
// — is valid until the pass takes its next step: the rule of a
// framelog.Visit payload. Copy (or Record) what must outlive it.
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
}

// Assignment returns the record's assignment, in key order.
func (f *Fields) Assignment() []Pair { return f.assignment.list() }

// Responses returns the record's responses, in name order.
func (f *Fields) Responses() []Response { return f.responses.list() }

// Fingerprint is runstore.Fingerprint of the record f holds.
func (f *Fields) Fingerprint() uint64 {
	h := fnvOffset64
	for _, p := range f.Assignment() {
		h = fnvString(fnvString(h, p.Key), p.Value)
	}
	h = (h ^ 1) * fnvPrime64
	for _, r := range f.Responses() {
		h = fnvResponse(h, r.Name, r.Value)
	}
	return h
}

// Entry returns the index entry of the record f holds, extent aside. It
// allocates once: the key, which the experiment and the hash are cut from.
func (f *Fields) Entry() SourceEntry {
	var digits [20]byte // the longest int64, sign included
	replicate := strconv.AppendInt(digits[:0], int64(f.Replicate), 10)
	var key strings.Builder
	key.Grow(len(f.Experiment) + 1 + len(f.Hash) + 1 + len(replicate))
	key.Write(f.Experiment)
	key.WriteByte('/')
	key.Write(f.Hash)
	key.WriteByte('/')
	key.Write(replicate)
	return SourceEntry{
		key:       key.String(),
		exp:       uint32(len(f.Experiment)),
		Replicate: f.Replicate,
		Row:       f.Row,
		Fp:        f.Fingerprint(),
	}
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
