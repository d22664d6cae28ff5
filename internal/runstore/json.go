package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"strconv"

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
// missing hash is left for the caller to derive. A document walkJSON
// recognises is parsed in that one pass; any other goes to
// json.Unmarshal, so what decodes, what it decodes to, and what each
// failure says are encoding/json's.
func DecodeJSON(doc []byte) (Record, error) {
	var f Fields // on this stack
	if walkJSON(doc, &f, false) {
		return f.Record(), nil
	}
	var rec Record
	err := json.Unmarshal(doc, &rec)
	return rec, err
}

// DecodeJSONFields is the field pass over one record's JSON document —
// the payload of a journal line and of an archive record block: it fills
// f with the record DecodeJSON returns for doc, a missing hash derived,
// building the record itself only for a document walkJSON does not
// recognise. f points into doc afterwards.
func DecodeJSONFields(doc []byte, f *Fields) error { return jsonCodec.fields(doc, f) }

// walkJSON is the JSON codec's one walk of the record grammar: it fills f
// from doc, building no map and no string, if doc is written the way
// AppendJSON writes a record that has its hash and whose strings are all
// plain — the six fields in order, no whitespace, strings without
// escapes, integers and numbers as bare JSON literals, maps as null or an
// object whose keys strictly ascend (so no key repeats, and the members
// are already in the order every hash folds them in). It is deliberately
// narrow: ok is false for everything else, valid JSON included, and what
// f then holds means nothing. Whatever it accepts, json.Unmarshal decodes
// to the record f describes.
//
// With canonical set it accepts only AppendJSON's own bytes for that
// record — the canonical form of docs/FORMAT.md §1: additionally no raw
// '<', '>' or '&', no -0 integer, every number the shortest one
// canonjson.AppendFloat would write. That is the entry scan's verdict.
func walkJSON(doc []byte, f *Fields, canonical bool) (ok bool) {
	c := canonjson.NewCursor(doc)
	c.Lit(`{"experiment":`)
	f.Experiment = c.Quoted(canonical)
	c.Lit(`,"row":`)
	f.Row = jsonInt(&c, canonical)
	c.Lit(`,"replicate":`)
	f.Replicate = jsonInt(&c, canonical)
	c.Lit(`,"hash":`)
	f.Hash = c.Quoted(canonical)
	c.Lit(`,"assignment":`)
	if f.assignment.start(c.Object()) {
		for k := []byte(nil); c.Member(); {
			k = c.NextKey(k, canonical)
			f.assignment.add(Pair{k, c.Quoted(canonical)})
		}
	}
	c.Lit(`,"responses":`)
	if f.responses.start(c.Object()) {
		var shortest [32]byte
		for k := []byte(nil); c.Member(); {
			k = c.NextKey(k, canonical)
			literal := c.Rest()
			v := c.Num()
			if canonical {
				literal = literal[:len(literal)-len(c.Rest())]
				if want, err := canonjson.AppendFloat(shortest[:0], v); err != nil || !bytes.Equal(want, literal) {
					c.Fail()
				}
			}
			f.responses.add(Response{k, v})
		}
	}
	c.Lit(`}`)
	return c.Done() && len(f.Hash) > 0
}

// jsonInt consumes an int field's literal; canonical refuses -0, which
// json.Unmarshal takes and strconv never writes.
func jsonInt(c *canonjson.Cursor, canonical bool) int {
	if canonical {
		return c.CanonInt()
	}
	return c.Int()
}
