package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"
	"strings"

	"repro/internal/canonjson"
)

// The JSON record codec is the payload half of the JSONL journal, the
// NDJSON wire and the archive's record blocks: one record's canonical
// JSON document (docs/FORMAT.md §1), without framing. A record has one
// shape — six fields in fixed order, two string-keyed maps — so the
// document is written and parsed by code that knows it, not by
// reflection. encoding/json stays the specification: AppendJSON's bytes
// are json.Marshal's for every record, and whatever is not in canonical
// form (hand-edited lines, unknown fields, escapes, non-ASCII names,
// every malformed input and its error message) is json.Unmarshal's to
// decode. FuzzJSONCodec holds both halves to that.

// AppendJSON appends rec's canonical JSON document to dst — byte for
// byte what json.Marshal(rec) returns — and allocates nothing while
// every string is plain ASCII. A non-finite response is an error, as it
// is for json.Marshal; dst is then returned unextended.
func AppendJSON(dst []byte, rec Record) ([]byte, error) {
	out := append(dst, `{"experiment":`...)
	out = canonjson.AppendString(out, rec.Experiment)
	out = append(out, `,"row":`...)
	out = strconv.AppendInt(out, int64(rec.Row), 10)
	out = append(out, `,"replicate":`...)
	out = strconv.AppendInt(out, int64(rec.Replicate), 10)
	out = append(out, `,"hash":`...)
	out = canonjson.AppendString(out, rec.Hash)
	out = append(out, `,"assignment":`...)
	out = canonjson.AppendStrings(out, rec.Assignment)
	out = append(out, `,"responses":`...)
	out, err := canonjson.AppendMap(out, rec.Responses, canonjson.AppendFloat)
	if err != nil {
		return dst, fmt.Errorf("runstore: %w", err)
	}
	return append(out, '}'), nil
}

// DecodeJSON parses one record's JSON document exactly as stored: a
// missing hash is left for the caller to derive. A document in the
// canonical form is parsed in one pass; any other goes to
// json.Unmarshal, so what decodes, what it decodes to, and what each
// failure says are encoding/json's.
func DecodeJSON(doc []byte) (Record, error) {
	if rec, ok := decodeCanonicalJSON(doc); ok {
		return rec, nil
	}
	// From a zeroed record: json.Unmarshal adds to the maps it is given,
	// and the canonical pass may have half-filled one.
	var rec Record
	err := json.Unmarshal(doc, &rec)
	return rec, err
}

// decodeCanonicalJSON parses doc if it is written the way AppendJSON
// writes a record whose strings are all plain: the six fields in order,
// no whitespace, strings without escapes, integers and numbers as bare
// JSON literals, maps as null or an object. It is deliberately narrow —
// ok is false for everything else, valid JSON included — and whatever
// it accepts json.Unmarshal decodes to the same record.
func decodeCanonicalJSON(doc []byte) (rec Record, ok bool) {
	c := canonjson.NewCursor(doc)
	c.Lit(`{"experiment":`)
	rec.Experiment = c.Str()
	c.Lit(`,"row":`)
	rec.Row = c.Int()
	c.Lit(`,"replicate":`)
	rec.Replicate = c.Int()
	c.Lit(`,"hash":`)
	rec.Hash = c.Str()
	c.Lit(`,"assignment":`)
	if c.Object() {
		rec.Assignment = make(map[string]string)
		for c.Member() {
			k := c.Str()
			c.Lit(":")
			rec.Assignment[k] = c.Str()
		}
	}
	c.Lit(`,"responses":`)
	if c.Object() {
		rec.Responses = make(map[string]float64)
		for c.Member() {
			k := c.Str()
			c.Lit(":")
			rec.Responses[k] = c.Num()
		}
	}
	c.Lit(`}`)
	return rec, c.Done()
}

// scanJSONEntry is the JSON codec's entry scan: one pass over doc that
// builds no record. ok is true only when doc is byte for byte what
// AppendJSON writes for the record it decodes to — the canonical form of
// docs/FORMAT.md §1: the six fields in order, no whitespace, every string
// plain, no -0 integer, a non-empty hash, map keys strictly ascending,
// every number the shortest one canonjson.AppendFloat would write — and e
// is then that record's index entry (entryOf, extent aside), its three
// strings cut from one allocation. Sorted keys are also what lets
// the fingerprint be folded in document order. Anything else, valid or
// not, is the caller's to decode.
func scanJSONEntry(doc []byte) (e SourceEntry, ok bool) {
	c := canonjson.NewCursor(doc)
	c.Lit(`{"experiment":`)
	experiment := c.Quoted(true)
	c.Lit(`,"row":`)
	e.Row = c.CanonInt()
	c.Lit(`,"replicate":`)
	replicate := c.Rest()
	e.Replicate = c.CanonInt()
	replicate = replicate[:len(replicate)-len(c.Rest())]
	c.Lit(`,"hash":`)
	hash := c.Quoted(true)
	c.Lit(`,"assignment":`)
	h := fnvOffset64
	if c.Object() {
		for k := []byte(nil); c.Member(); {
			k = c.NextKey(k)
			h = fnvString(fnvString(h, k), c.Quoted(true))
		}
	}
	c.Lit(`,"responses":`)
	h = (h ^ 1) * fnvPrime64
	if c.Object() {
		var shortest [32]byte
		for k := []byte(nil); c.Member(); {
			k = c.NextKey(k)
			literal := c.Rest()
			v := c.Num()
			literal = literal[:len(literal)-len(c.Rest())]
			if want, err := canonjson.AppendFloat(shortest[:0], v); err != nil || !bytes.Equal(want, literal) {
				c.Fail()
			}
			h = fnvResponse(h, k, v)
		}
	}
	c.Lit(`}`)
	if !c.Done() || len(hash) == 0 {
		return SourceEntry{}, false
	}
	var key strings.Builder
	key.Grow(len(experiment) + 1 + len(hash) + 1 + len(replicate))
	key.Write(experiment)
	key.WriteByte('/')
	key.Write(hash)
	key.WriteByte('/')
	key.Write(replicate) // a canonical integer literal is strconv.Itoa's
	e.key = key.String()
	e.Experiment = e.key[:len(experiment)]
	e.Hash = e.key[len(experiment)+1:][:len(hash)]
	e.Fp = h
	e.canonical = true
	return e, true
}
