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
// whether it allocates.
type replay struct {
	// cells holds, by a cell's document span from {"experiment": through
	// the end of its assignment value, a cell with that identity and no
	// aggregates: what every cell spelled that way starts as.
	cells map[string]Cell
	names names
}

func newReplay() *replay {
	return &replay{cells: make(map[string]Cell), names: make(names)}
}

// Literals the canonical pass asks about: a tombstone's flag, what starts
// every cell of a canonical document and nothing else in one (a plain
// string holds no quote), and what follows a cell's identity.
var (
	prunedTrue  = []byte(`,"pruned":true`)
	comma       = []byte(`,`)
	cellOpen    = []byte(`{"experiment":`)
	responseKey = []byte(`,"response":`)
)

// walkIdentity walks the identity span of one cell — {"experiment":
// through the end of the assignment value — into a cell of that identity.
func (rp *replay) walkIdentity(c *canonjson.Cursor) (cell Cell) {
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

// identity consumes one cell's identity span and the response key after
// it, and returns a cell of the identity the span spells. ok is false, and
// the walk failed, when the input does not continue that way.
//
// The input up to its first response key is looked up before it is walked.
// A span is entered only once the walk has accepted it, the walk reads
// nothing beyond the span it accepts, and a complete value is prefix-free:
// input that starts with an entered span and the response key is input the
// walk would accept, consuming exactly that span and building exactly that
// identity. So a hit needs no walk and builds nothing; anything else — a
// new identity, an assignment with a factor named response, input that is
// not canonical — is the walk's to judge, every check of it kept.
func (rp *replay) identity(c *canonjson.Cursor) (cell Cell, ok bool) {
	rest := c.Rest()
	if end := bytes.Index(rest, responseKey); end >= 0 {
		if cell, ok = rp.cells[string(rest[:end])]; ok && c.Accept(rest[:end+len(responseKey)]) {
			return cell, true
		}
	}
	cell = rp.walkIdentity(c)
	if !c.Accept(responseKey) {
		c.Fail()
		return cell, false
	}
	span := rest[:len(rest)-len(c.Rest())-len(responseKey)]
	if known, ok := rp.cells[string(span)]; ok {
		return known, true // spelled with a response key inside: found by the walk's span
	}
	rp.cells[string(span)] = cell
	return cell, true
}

// decodeCanonicalRun parses doc if it is written the way appendRun writes
// a run whose strings are all plain. It is deliberately narrow — ok is
// false for everything else, valid JSON included — and whatever it
// accepts json.Unmarshal decodes to an equal run. Equal, not identical:
// a cell's experiment, hash, assignment map and selector are rp's — the
// ones every cell of this replay with the same identity holds, in this run
// and in every other — and so are the response and format names.
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
		r.Cells = make([]Cell, 0, bytes.Count(c.Rest(), cellOpen))
		for more := true; more; more = c.Accept(comma) {
			cell, ok := rp.identity(&c)
			if !ok {
				return r, false
			}
			cell.Response = rp.names.of(c.Quoted(false))
			c.Lit(`,"n":`)
			cell.N = c.Int()
			c.Lit(`,"mean":`)
			cell.Mean = c.Num()
			c.Lit(`,"variance":`)
			cell.Variance = c.Num()
			c.Lit(`}`)
			r.Cells = append(r.Cells, cell)
		}
		c.Lit(`]`)
	}
	c.Lit(`}`)
	return r, c.Done()
}
