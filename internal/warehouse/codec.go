package warehouse

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/canonjson"
	"repro/internal/design"
)

// The run document codec is the payload half of the index file: one
// Run's canonical JSON document (docs/FORMAT.md §5), without framing. A
// run has one shape — nine fields in fixed order, the last an array of
// seven-field cells — so the document is written and parsed by code that
// knows it, not by reflection, exactly as the record's is
// (internal/runstore/json.go, over the same internal/canonjson
// primitives). encoding/json stays the specification: appendRun's bytes
// are json.Marshal(Run)'s for every run, and whatever is not in canonical
// form (a hand-edited index, unknown fields, escapes, every malformed
// input and its error message) is json.Unmarshal's to decode.
// FuzzIndexCodec holds both halves to that.

// appendRun appends r's canonical JSON document to dst — byte for byte
// what json.Marshal(r) returns. A non-finite mean or variance is an
// error, as it is for json.Marshal; dst is then returned unextended.
func appendRun(dst []byte, r Run) ([]byte, error) {
	out := append(dst, `{"path":`...)
	out = canonjson.AppendString(out, r.Path)
	out = append(out, `,"size":`...)
	out = strconv.AppendInt(out, r.Size, 10)
	out = append(out, `,"mod_time_ns":`...)
	out = strconv.AppendInt(out, r.ModTimeNS, 10)
	out = append(out, `,"ingest_time_ns":`...)
	out = strconv.AppendInt(out, r.IngestTimeNS, 10)
	out = append(out, `,"fingerprint":`...)
	out = strconv.AppendUint(out, r.Fingerprint, 10)
	out = append(out, `,"format":`...)
	out = canonjson.AppendString(out, r.Format)
	out = append(out, `,"records":`...)
	out = strconv.AppendInt(out, int64(r.Records), 10)
	if r.Pruned {
		out = append(out, `,"pruned":true`...)
	}
	for i, c := range r.Cells {
		if i == 0 {
			out = append(out, `,"cells":[`...)
		} else {
			out = append(out, ',')
		}
		out = append(out, `{"experiment":`...)
		out = canonjson.AppendString(out, c.Experiment)
		out = append(out, `,"hash":`...)
		out = canonjson.AppendString(out, c.Hash)
		out = append(out, `,"assignment":`...)
		out = canonjson.AppendStrings(out, c.Assignment)
		out = append(out, `,"response":`...)
		out = canonjson.AppendString(out, c.Response)
		out = append(out, `,"n":`...)
		out = strconv.AppendInt(out, int64(c.N), 10)
		out = append(out, `,"mean":`...)
		var err error
		if out, err = canonjson.AppendFloat(out, c.Mean); err != nil {
			return dst, err
		}
		out = append(out, `,"variance":`...)
		if out, err = canonjson.AppendFloat(out, c.Variance); err != nil {
			return dst, err
		}
		out = append(out, '}')
	}
	if len(r.Cells) > 0 {
		out = append(out, ']')
	}
	return append(out, '}'), nil
}

// decodeRun parses one run document. A document in the canonical form is
// parsed in one pass, its cells' identities shared through rp; any other
// goes to json.Unmarshal, so what decodes, what it decodes to, and what
// each failure says are encoding/json's. Either way every cell of the
// result carries its selector.
func decodeRun(doc []byte, rp *replay) (Run, error) {
	if r, ok := decodeCanonicalRun(doc, rp); ok {
		return r, nil
	}
	var r Run // from zero: the canonical pass may have half-filled one
	err := json.Unmarshal(doc, &r)
	r.Cells = withSelectors(r.Cells)
	return r, err
}

// names holds each distinct string it is asked for once: the few names a
// whole index repeats — experiments, factors, responses, formats.
type names map[string]string

// of returns b as a string, the one an earlier call made of the same bytes
// if there was one.
func (n names) of(b []byte) string {
	s, ok := n[string(b)]
	if !ok {
		s = string(b)
		n[s] = s
	}
	return s
}

// replay is the dictionary the frames of one index replay share. An index
// is a history of the same design, so the replay builds each cell's
// identity — experiment, hash, assignment and the selector rendered from
// it — once, at the first frame that spells it, and hands every later cell
// that spells it the same way the same strings and the same map. A run is
// only ever replaced whole, never edited in place, so a value two runs
// share cannot go stale. What an identity is built from is the bytes of
// its span alone: no frame changes what a later frame decodes to, only
// whether it allocates and how soon it finds a cell's identity.
type replay struct {
	// ids holds every identity entered, ids[0] standing for the start of a
	// cell list; byKey finds one by its key.
	ids   []entry
	byKey map[string]int
	names names
	prev  int // the identity of the cell before, 0 at the start of a list
	width int // how many cells the last canonical list held
}

// entry is one identity of the dictionary.
type entry struct {
	// key is the cell's document span from {"experiment": through the end
	// of its assignment value, followed by the response key.
	key string
	// cell has that identity and no aggregates: what every cell spelled
	// that way starts as.
	cell Cell
	// next is the identity that first followed this one, in any frame; 0
	// until one has.
	next int
}

func newReplay() *replay {
	return &replay{ids: make([]entry, 1), byKey: make(map[string]int), names: make(names)}
}

// Literals the canonical pass asks about: a tombstone's flag, the comma
// between cells, and what follows a cell's identity.
var (
	prunedTrue  = []byte(`,"pruned":true`)
	comma       = []byte(`,`)
	responseKey = []byte(`,"response":`)
)

// walkIdentity walks the identity span of one cell — {"experiment":
// through the end of the assignment value — into a cell of that identity.
func (rp *replay) walkIdentity(c *canonjson.Cursor) (cell Cell) {
	if identitySteps != nil {
		identitySteps(true)
	}
	c.Lit(`{"experiment":`)
	cell.Experiment = rp.names.of(c.Quoted(false))
	c.Lit(`,"hash":`)
	cell.Hash = string(c.Quoted(false))
	c.Lit(`,"assignment":`)
	if c.Object() {
		cell.Assignment = make(map[string]string)
		for c.Member() {
			k := rp.names.of(c.Quoted(false))
			c.Lit(":")
			cell.Assignment[k] = string(c.Quoted(false))
		}
	}
	cell.selector = design.Assignment(cell.Assignment).String()
	return cell
}

// spells consumes identity id's key and reports whether the input starts
// with it.
func (rp *replay) spells(c *canonjson.Cursor, id int) bool {
	key, rest := rp.ids[id].key, c.Rest()
	return len(rest) >= len(key) && string(rest[:len(key)]) == key && c.Accept(rest[:len(key)])
}

// identity consumes one cell's identity span and the response key after
// it, and returns the identity the span spells. ok is false, and the walk
// failed, when the input does not continue that way.
//
// A key is entered only once the walk has accepted its span, the walk
// reads nothing beyond the span it accepts, and a complete value is
// prefix-free: input that starts with an entered key is input the walk
// would accept, consuming exactly that span and building exactly that
// identity. So the replay first tries the identities it predicts — the
// cell before's, since the responses of one design cell are adjacent, and
// the one that first followed it, since runs of one design list their
// cells in one order — then the key the input spells up to its first
// response key, and a hit on any of them needs no walk and builds nothing.
// Anything else — a new identity, an assignment with a factor named
// response, input that is not canonical — is the walk's to judge, every
// check of it kept.
func (rp *replay) identity(c *canonjson.Cursor) (id int, ok bool) {
	prev := rp.prev
	id = rp.ids[prev].next
	switch {
	case prev > 0 && rp.spells(c, prev):
		return prev, true
	case id > 0 && rp.spells(c, id):
	default:
		if id, ok = rp.search(c); !ok {
			return 0, false
		}
		if rp.ids[prev].next == 0 {
			rp.ids[prev].next = id
		}
	}
	rp.prev = id
	return id, true
}

// search finds the identity the input spells without a prediction: by the
// key up to its first response key, or else by walking the span, entering
// it when it is new.
func (rp *replay) search(c *canonjson.Cursor) (id int, ok bool) {
	if identitySteps != nil {
		identitySteps(false)
	}
	rest := c.Rest()
	if end := bytes.Index(rest, responseKey); end >= 0 {
		if id, ok = rp.byKey[string(rest[:end+len(responseKey)])]; ok && c.Accept(rest[:end+len(responseKey)]) {
			return id, true
		}
	}
	cell := rp.walkIdentity(c)
	if !c.Accept(responseKey) {
		c.Fail()
		return 0, false
	}
	key := rest[:len(rest)-len(c.Rest())]
	if id, ok = rp.byKey[string(key)]; ok {
		return id, true // spelled with a response key inside: found by the walk's span
	}
	id = len(rp.ids)
	rp.ids = append(rp.ids, entry{key: string(key), cell: cell})
	rp.byKey[rp.ids[id].key] = id
	return id, true
}

// identitySteps, when set, is told of each identity span the replay
// searches for (false) and each it walks (true): a test's window on
// whether it predicts (export_test.go).
var identitySteps func(walked bool)

// decodeCanonicalRun parses doc if it is written the way appendRun writes
// a run whose strings are all plain. It is deliberately narrow — ok is
// false for everything else, valid JSON included — and whatever it
// accepts json.Unmarshal decodes to an equal run. Equal, not identical:
// a cell's experiment, hash, assignment map and selector are rp's — the
// ones every cell of this replay with the same identity holds, in this run
// and in every other — and so are the response and format names. Each
// cell is decoded in its slot of the run's list, which starts as a copy of
// its identity's cell: one copy of the cell, not one out and one in.
func decodeCanonicalRun(doc []byte, rp *replay) (r Run, ok bool) {
	c := canonjson.NewCursor(doc)
	c.Lit(`{"path":`)
	r.Path = c.Str()
	c.Lit(`,"size":`)
	r.Size = c.Int64()
	c.Lit(`,"mod_time_ns":`)
	r.ModTimeNS = c.Int64()
	c.Lit(`,"ingest_time_ns":`)
	r.IngestTimeNS = c.Int64()
	c.Lit(`,"fingerprint":`)
	r.Fingerprint = c.Uint64()
	c.Lit(`,"format":`)
	r.Format = rp.names.of(c.Quoted(false))
	c.Lit(`,"records":`)
	r.Records = c.Int()
	r.Pruned = c.Accept(prunedTrue)
	if c.Peek(',') {
		c.Lit(`,"cells":[`)
		r.Cells = make([]Cell, 0, rp.width) // runs of one design hold as many cells
		rp.prev = 0
		for more := true; more; more = c.Accept(comma) {
			id, ok := rp.identity(&c)
			if !ok {
				return r, false
			}
			r.Cells = append(r.Cells, rp.ids[id].cell)
			cell := &r.Cells[len(r.Cells)-1]
			cell.Response = rp.names.of(c.Quoted(false))
			c.Lit(`,"n":`)
			cell.N = c.Int()
			c.Lit(`,"mean":`)
			cell.Mean = c.Num()
			c.Lit(`,"variance":`)
			cell.Variance = c.Num()
			c.Lit(`}`)
		}
		c.Lit(`]`)
		if rp.width = len(r.Cells); len(r.Cells) != cap(r.Cells) {
			r.Cells = append(make([]Cell, 0, len(r.Cells)), r.Cells...) // no resident run keeps slack
		}
	}
	c.Lit(`}`)
	return r, c.Done()
}
