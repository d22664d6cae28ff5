package warehouse

import (
	"bytes"
	"encoding/json"
	"strconv"

	"repro/internal/canonjson"
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
// parsed in one pass; any other goes to json.Unmarshal, so what decodes,
// what it decodes to, and what each failure says are encoding/json's.
func decodeRun(doc []byte) (Run, error) {
	if r, ok := decodeCanonicalRun(doc); ok {
		return r, nil
	}
	var r Run // from zero: the canonical pass may have half-filled one
	err := json.Unmarshal(doc, &r)
	return r, err
}

// Literals the canonical pass asks about: a tombstone's flag, and what
// starts every cell of a canonical document and nothing else in one (a
// plain string holds no quote).
var (
	prunedTrue = []byte(`,"pruned":true`)
	comma      = []byte(`,`)
	cellOpen   = []byte(`{"experiment":`)
)

// decodeCanonicalRun parses doc if it is written the way appendRun writes
// a run whose strings are all plain. It is deliberately narrow — ok is
// false for everything else, valid JSON included — and whatever it
// accepts json.Unmarshal decodes to an equal run. Equal, not identical:
// a string or an assignment that repeats the cell before it (a run's
// cells are sorted, so the responses of one design cell are adjacent) is
// that cell's, not a copy — what ingest hands the index in the first
// place.
func decodeCanonicalRun(doc []byte) (r Run, ok bool) {
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
	r.Format = c.Str()
	c.Lit(`,"records":`)
	r.Records = c.Int()
	r.Pruned = c.Accept(prunedTrue)
	if c.Peek(',') {
		c.Lit(`,"cells":[`)
		r.Cells = make([]Cell, 0, bytes.Count(c.Rest(), cellOpen))
		var prev Cell
		var prevAssignment []byte // prev's assignment as the document spells it
		for more := true; more; more = c.Accept(comma) {
			var cell Cell
			c.Lit(`{"experiment":`)
			cell.Experiment = repeated(c.Quoted(false), prev.Experiment)
			c.Lit(`,"hash":`)
			cell.Hash = repeated(c.Quoted(false), prev.Hash)
			c.Lit(`,"assignment":`)
			// A complete value is prefix-free: input that starts with the
			// bytes of prev's assignment holds that same assignment.
			if len(prevAssignment) > 0 && c.Accept(prevAssignment) {
				cell.Assignment = prev.Assignment
			} else {
				prevAssignment = c.Rest()
				if c.Object() {
					cell.Assignment = make(map[string]string)
					for c.Member() {
						k := c.Str()
						c.Lit(":")
						cell.Assignment[k] = c.Str()
					}
				}
				prevAssignment = prevAssignment[:len(prevAssignment)-len(c.Rest())]
			}
			c.Lit(`,"response":`)
			cell.Response = repeated(c.Quoted(false), prev.Response)
			c.Lit(`,"n":`)
			cell.N = c.Int()
			c.Lit(`,"mean":`)
			cell.Mean = c.Num()
			c.Lit(`,"variance":`)
			cell.Variance = c.Num()
			c.Lit(`}`)
			r.Cells = append(r.Cells, cell)
			prev = cell
		}
		c.Lit(`]`)
	}
	c.Lit(`}`)
	return r, c.Done()
}

// repeated returns s as a string: prev itself when it holds the same
// bytes, so the strings every cell of a run repeats are allocated once.
func repeated(s []byte, prev string) string {
	if string(s) == prev {
		return prev
	}
	return string(s)
}
