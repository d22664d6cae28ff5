package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strconv"
	"strings"
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
	out = appendJSONString(out, rec.Experiment)
	out = append(out, `,"row":`...)
	out = strconv.AppendInt(out, int64(rec.Row), 10)
	out = append(out, `,"replicate":`...)
	out = strconv.AppendInt(out, int64(rec.Replicate), 10)
	out = append(out, `,"hash":`...)
	out = appendJSONString(out, rec.Hash)
	out = append(out, `,"assignment":`...)
	out, _ = appendJSONMap(out, rec.Assignment, func(b []byte, s string) ([]byte, error) {
		return appendJSONString(b, s), nil
	})
	out = append(out, `,"responses":`...)
	out, err := appendJSONMap(out, rec.Responses, appendJSONFloat)
	if err != nil {
		return dst, err
	}
	return append(out, '}'), nil
}

// appendJSONMap appends m as a JSON object with its keys in byte order;
// a nil map is null, an empty one {}. It stops at the first value that
// does not encode.
func appendJSONMap[V any](dst []byte, m map[string]V, appendValue func([]byte, V) ([]byte, error)) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var stack [8]string // the keys of an ordinary record sort without touching the heap
	dst = append(dst, '{')
	for i, k := range sortedKeys(stack[:0], m) {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = appendJSONString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendValue(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// What a byte means inside a JSON string: plain bytes stand for
// themselves and are what a canonical string is made of; the three
// json.Marshal escapes for HTML's sake stand for themselves too, but
// only to a reader; the quote ends the string; anything else (control
// characters, the backslash, non-ASCII) is encoding/json's business.
const (
	jsonPlainByte = iota
	jsonHTMLByte
	jsonQuoteByte
	jsonOtherByte
)

// jsonClass classifies every byte once, so the string loops of both the
// encoder and the cursor cost one load per byte.
var jsonClass = func() (class [256]byte) {
	for c := range class {
		switch {
		case c == '"':
			class[c] = jsonQuoteByte
		case c == '<' || c == '>' || c == '&':
			class[c] = jsonHTMLByte
		case c < 0x20 || c >= 0x80 || c == '\\':
			class[c] = jsonOtherByte
		}
	}
	return class
}()

// jsonPlain reports whether c stands for itself inside a canonical JSON
// string: printable ASCII except the quote, the backslash and the three
// characters json.Marshal escapes for HTML's sake.
func jsonPlain(c byte) bool { return jsonClass[c] == jsonPlainByte }

// appendJSONString appends s as a JSON string. A plain string is copied
// between quotes; the escaping of anything else is json.Marshal's own.
func appendJSONString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if !jsonPlain(s[i]) {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// appendJSONFloat appends f the way json.Marshal writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a negative exponent's leading zero dropped. NaN
// and the infinities are the same error they are to json.Marshal.
func appendJSONFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("runstore: json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
	}
	format := byte('f')
	if abs := math.Abs(f); abs != 0 && (abs < 1e-6 || abs >= 1e21) {
		format = 'e'
	}
	dst = strconv.AppendFloat(dst, f, format, -1, 64)
	if n := len(dst); format == 'e' && n >= 4 && dst[n-4] == 'e' && dst[n-3] == '-' && dst[n-2] == '0' {
		dst[n-2] = dst[n-1]
		dst = dst[:n-1]
	}
	return dst, nil
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
	c := jsonCursor{b: doc}
	c.lit(`{"experiment":`)
	rec.Experiment = c.str()
	c.lit(`,"row":`)
	rec.Row = c.int()
	c.lit(`,"replicate":`)
	rec.Replicate = c.int()
	c.lit(`,"hash":`)
	rec.Hash = c.str()
	c.lit(`,"assignment":`)
	if c.object() {
		rec.Assignment = make(map[string]string)
		for c.member() {
			k := c.str()
			c.lit(":")
			rec.Assignment[k] = c.str()
		}
	}
	c.lit(`,"responses":`)
	if c.object() {
		rec.Responses = make(map[string]float64)
		for c.member() {
			k := c.str()
			c.lit(":")
			rec.Responses[k] = c.num()
		}
	}
	c.lit(`}`)
	return rec, !c.bad && len(c.b) == 0
}

// scanJSONEntry is the JSON codec's entry scan: one pass over doc that
// builds no record. ok is true only when doc is byte for byte what
// AppendJSON writes for the record it decodes to — the canonical form of
// docs/FORMAT.md §1: the six fields in order, no whitespace, every string
// plain (jsonPlain), no -0 integer, a non-empty hash, map keys strictly
// ascending, every number the shortest one appendJSONFloat would write —
// and e is then that record's index entry (entryOf, extent aside), its
// three strings cut from one allocation. Sorted keys are also what lets
// the fingerprint be folded in document order. Anything else, valid or
// not, is the caller's to decode.
func scanJSONEntry(doc []byte) (e SourceEntry, ok bool) {
	c := jsonCursor{b: doc}
	c.lit(`{"experiment":`)
	experiment := c.quoted(true)
	c.lit(`,"row":`)
	e.Row = c.canonInt()
	c.lit(`,"replicate":`)
	replicate := c.b
	e.Replicate = c.canonInt()
	replicate = replicate[:len(replicate)-len(c.b)]
	c.lit(`,"hash":`)
	hash := c.quoted(true)
	c.lit(`,"assignment":`)
	h := fnvOffset64
	if c.object() {
		for k := []byte(nil); c.member(); {
			k = c.nextKey(k)
			h = fnvString(fnvString(h, k), c.quoted(true))
		}
	}
	c.lit(`,"responses":`)
	h = (h ^ 1) * fnvPrime64
	if c.object() {
		var shortest [32]byte
		for k := []byte(nil); c.member(); {
			k = c.nextKey(k)
			literal := c.b
			v := c.num()
			literal = literal[:len(literal)-len(c.b)]
			if want, err := appendJSONFloat(shortest[:0], v); err != nil || !bytes.Equal(want, literal) {
				c.bad = true
			}
			h = fnvResponse(h, k, v)
		}
	}
	c.lit(`}`)
	if c.bad || len(c.b) != 0 || len(hash) == 0 {
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

// jsonCursor walks one document front to back. The first thing that is
// not canonical sets bad, after which every step is a no-op.
type jsonCursor struct {
	b     []byte
	bad   bool
	first bool // inside an object, before its first member
}

// peek reports whether the next byte is ch, without consuming it.
func (c *jsonCursor) peek(ch byte) bool {
	return !c.bad && len(c.b) > 0 && c.b[0] == ch
}

// lit consumes exactly s.
func (c *jsonCursor) lit(s string) {
	if c.bad || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		c.bad = true
		return
	}
	c.b = c.b[len(s):]
}

// quoted consumes a quoted string without escapes and returns what is
// between the quotes, still in the document. The raw forms of '<', '>'
// and '&' mean themselves, as they do to json.Unmarshal, but are not
// what AppendJSON writes: canonical refuses them.
func (c *jsonCursor) quoted(canonical bool) []byte {
	if !c.peek('"') {
		c.bad = true
		return nil
	}
	for i := 1; i < len(c.b); i++ {
		switch class := jsonClass[c.b[i]]; {
		case class == jsonPlainByte, class == jsonHTMLByte && !canonical:
		case class == jsonQuoteByte:
			s := c.b[1:i]
			c.b = c.b[i+1:]
			return s
		default:
			c.bad = true
			return nil
		}
	}
	c.bad = true
	return nil
}

// nextKey consumes a canonical member key and its colon. Keys strictly
// ascend: one that does not sort after prev, the key before it in the
// object (nil for the first — quoted's result never is), is refused.
func (c *jsonCursor) nextKey(prev []byte) []byte {
	k := c.quoted(true)
	c.lit(":")
	if prev != nil && bytes.Compare(prev, k) >= 0 {
		c.bad = true
	}
	return k
}

// str consumes a quoted string of characters that stand for themselves.
func (c *jsonCursor) str() string { return string(c.quoted(false)) }

// digits returns how many bytes from b[from] on are decimal digits.
func (c *jsonCursor) digits(from int) int {
	i := from
	for i < len(c.b) && c.b[i] >= '0' && c.b[i] <= '9' {
		i++
	}
	return i - from
}

// integer returns the length of the JSON integer literal the input
// starts with — an optional minus, then 0 or digits without a leading
// zero — or sets bad. strconv alone accepts more than JSON does.
func (c *jsonCursor) integer() int {
	i := 0
	if c.peek('-') {
		i = 1
	}
	n := c.digits(i)
	if c.bad || n == 0 || (n > 1 && c.b[i] == '0') {
		c.bad = true
		return 0
	}
	return i + n
}

// int consumes a JSON integer literal and converts it as json.Unmarshal
// would; one that overflows an int is left for it to refuse.
func (c *jsonCursor) int() int {
	i := c.integer()
	if c.bad {
		return 0
	}
	v, err := strconv.Atoi(string(c.b[:i]))
	if err != nil {
		c.bad = true
		return 0
	}
	c.b = c.b[i:]
	return v
}

// canonInt is int for the entry scan: -0 is an integer json.Unmarshal
// takes and AppendJSON never writes.
func (c *jsonCursor) canonInt() int {
	negative := c.peek('-')
	v := c.int()
	if negative && v == 0 {
		c.bad = true
	}
	return v
}

// num consumes a JSON number literal — integer, optional fraction,
// optional exponent — and converts it as json.Unmarshal would; one out
// of float64's range is left for it to refuse.
func (c *jsonCursor) num() float64 {
	i := c.integer()
	if i < len(c.b) && c.b[i] == '.' {
		n := c.digits(i + 1)
		if n == 0 {
			c.bad = true
		}
		i += 1 + n
	}
	if i < len(c.b) && (c.b[i] == 'e' || c.b[i] == 'E') {
		i++
		if i < len(c.b) && (c.b[i] == '+' || c.b[i] == '-') {
			i++
		}
		n := c.digits(i)
		if n == 0 {
			c.bad = true
		}
		i += n
	}
	if c.bad {
		return 0
	}
	f, err := strconv.ParseFloat(string(c.b[:i]), 64)
	if err != nil {
		c.bad = true
		return 0
	}
	c.b = c.b[i:]
	return f
}

// object consumes the start of a map value: null, which is a nil map
// and reports false, or the brace that opens an object.
func (c *jsonCursor) object() bool {
	if c.peek('n') {
		c.lit("null")
		return false
	}
	c.lit("{")
	c.first = true
	return !c.bad
}

// member steps to the object's next member and reports whether there
// is one; the closing brace is consumed. A repeated key is not looked
// for: it keeps its last value, as it does in json.Unmarshal's maps.
func (c *jsonCursor) member() bool {
	if c.peek('}') {
		c.lit("}")
		return false
	}
	if !c.first {
		c.lit(",")
	}
	c.first = false
	return !c.bad
}
