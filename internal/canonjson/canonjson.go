// Package canonjson holds the primitives of the repository's
// hand-written JSON codecs — the record's (internal/runstore/json.go) and
// the warehouse run document's (internal/warehouse/codec.go): append
// functions whose bytes are json.Marshal's, and a cursor that walks a
// document written that way front to back. encoding/json stays the
// specification on both sides: whatever is not plain (escapes, non-ASCII,
// control characters) the append functions hand to json.Marshal, and a
// document the cursor does not recognise is the caller's to hand to
// json.Unmarshal — the cursor only ever says "canonical, and here is
// what it holds" or "not for me".
package canonjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"slices"
	"strconv"
)

// What a byte means inside a JSON string: plain bytes stand for
// themselves and are what a canonical string is made of; the three
// json.Marshal escapes for HTML's sake stand for themselves too, but
// only to a reader; the quote ends the string; anything else (control
// characters, the backslash, non-ASCII) is encoding/json's business.
const (
	plainByte = iota
	htmlByte
	quoteByte
	otherByte
)

// class classifies every byte once, so the string loops of both the
// encoder and the cursor cost one load per byte.
var class = func() (class [256]byte) {
	for c := range class {
		switch {
		case c == '"':
			class[c] = quoteByte
		case c == '<' || c == '>' || c == '&':
			class[c] = htmlByte
		case c < 0x20 || c >= 0x80 || c == '\\':
			class[c] = otherByte
		}
	}
	return class
}()

// AppendString appends s as a JSON string. A plain string — printable
// ASCII without the quote, the backslash and the three characters
// json.Marshal escapes for HTML's sake — is copied between quotes; the
// escaping of anything else is json.Marshal's own.
func AppendString(dst []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if class[s[i]] != plainByte {
			quoted, _ := json.Marshal(s) // a string always marshals
			return append(dst, quoted...)
		}
	}
	dst = append(dst, '"')
	dst = append(dst, s...)
	return append(dst, '"')
}

// AppendFloat appends f the way json.Marshal writes a float64: the
// shortest decimal that round-trips, in exponent form below 1e-6 and
// from 1e21 up, with a negative exponent's leading zero dropped. NaN
// and the infinities are the error they are to json.Marshal, in its
// words.
func AppendFloat(dst []byte, f float64) ([]byte, error) {
	if math.IsNaN(f) || math.IsInf(f, 0) {
		return dst, fmt.Errorf("json: unsupported value: %s", strconv.FormatFloat(f, 'g', -1, 64))
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

// AppendMap appends m as a JSON object with its keys in byte order; a
// nil map is null, an empty one {}. It stops at the first value that
// does not encode.
func AppendMap[V any](dst []byte, m map[string]V, appendValue func([]byte, V) ([]byte, error)) ([]byte, error) {
	if m == nil {
		return append(dst, "null"...), nil
	}
	var stack [8]string // the keys of an ordinary map sort without touching the heap
	keys := stack[:0]
	for k := range m {
		keys = append(keys, k)
	}
	slices.Sort(keys)
	dst = append(dst, '{')
	for i, k := range keys {
		if i > 0 {
			dst = append(dst, ',')
		}
		dst = AppendString(dst, k)
		dst = append(dst, ':')
		var err error
		if dst, err = appendValue(dst, m[k]); err != nil {
			return dst, err
		}
	}
	return append(dst, '}'), nil
}

// AppendStrings is AppendMap for a map of strings, which always encodes.
func AppendStrings(dst []byte, m map[string]string) []byte {
	dst, _ = AppendMap(dst, m, func(b []byte, s string) ([]byte, error) {
		return AppendString(b, s), nil
	})
	return dst
}

// Cursor walks one document front to back. The first thing that is not
// canonical marks it failed, after which every step is a no-op; a caller
// reads its fields off one straight-line walk and asks Done at the end.
type Cursor struct {
	b     []byte
	bad   bool
	first bool // inside an object, before its first member
}

// NewCursor returns a cursor at the start of doc.
func NewCursor(doc []byte) Cursor { return Cursor{b: doc} }

// Rest returns the bytes not yet consumed. The difference of two calls
// is the literal consumed between them.
func (c *Cursor) Rest() []byte { return c.b }

// Fail marks the document as not canonical.
func (c *Cursor) Fail() { c.bad = true }

// Done reports whether the walk consumed the whole document without
// failing.
func (c *Cursor) Done() bool { return !c.bad && len(c.b) == 0 }

// Peek reports whether the next byte is ch, without consuming it.
func (c *Cursor) Peek(ch byte) bool {
	return !c.bad && len(c.b) > 0 && c.b[0] == ch
}

// Lit consumes exactly s.
func (c *Cursor) Lit(s string) {
	if c.bad || len(c.b) < len(s) || string(c.b[:len(s)]) != s {
		c.bad = true
		return
	}
	c.b = c.b[len(s):]
}

// Accept consumes p when the input starts with it and reports whether it
// did. Unlike Lit it never fails the walk: it is how a caller asks about
// an optional part of the document.
func (c *Cursor) Accept(p []byte) bool {
	if c.bad || !bytes.HasPrefix(c.b, p) {
		return false
	}
	c.b = c.b[len(p):]
	return true
}

// Quoted consumes a quoted string without escapes and returns what is
// between the quotes, still in the document. The raw forms of '<', '>'
// and '&' mean themselves, as they do to json.Unmarshal, but are not
// what AppendString writes: canonical refuses them.
func (c *Cursor) Quoted(canonical bool) []byte {
	if !c.Peek('"') {
		c.bad = true
		return nil
	}
	for i := 1; i < len(c.b); i++ {
		switch class := class[c.b[i]]; {
		case class == plainByte, class == htmlByte && !canonical:
		case class == quoteByte:
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

// NextKey consumes a member key, quoted as Quoted(canonical) takes it,
// and its colon. Keys strictly ascend: one that does not sort after prev,
// the key before it in the object (nil for the first — Quoted's result
// never is), is refused.
func (c *Cursor) NextKey(prev []byte, canonical bool) []byte {
	k := c.Quoted(canonical)
	c.Lit(":")
	if prev != nil && bytes.Compare(prev, k) >= 0 {
		c.bad = true
	}
	return k
}

// Str consumes a quoted string of characters that stand for themselves.
func (c *Cursor) Str() string { return string(c.Quoted(false)) }

// digits returns how many bytes from b[from] on are decimal digits.
func (c *Cursor) digits(from int) int {
	i := from
	for i < len(c.b) && c.b[i] >= '0' && c.b[i] <= '9' {
		i++
	}
	return i - from
}

// integer returns the length of the JSON integer literal the input
// starts with — an optional minus, then 0 or digits without a leading
// zero — or fails. strconv alone accepts more than JSON does.
func (c *Cursor) integer() int {
	i := 0
	if c.Peek('-') {
		i = 1
	}
	n := c.digits(i)
	if c.bad || n == 0 || (n > 1 && c.b[i] == '0') {
		c.bad = true
		return 0
	}
	return i + n
}

// converted finishes a number literal of n bytes that strconv turned
// into v: consumed on success; one out of T's range fails the walk and is
// left for json.Unmarshal to refuse.
func converted[T any](c *Cursor, n int, v T, err error) T {
	if err != nil {
		c.bad = true
		var zero T
		return zero
	}
	c.b = c.b[n:]
	return v
}

// Int consumes a JSON integer literal and converts it as json.Unmarshal
// would for an int field.
func (c *Cursor) Int() int {
	n := c.integer()
	if c.bad {
		return 0
	}
	v, err := strconv.Atoi(string(c.b[:n]))
	return converted(c, n, v, err)
}

// Int64 is Int for an int64 field.
func (c *Cursor) Int64() int64 {
	n := c.integer()
	if c.bad {
		return 0
	}
	v, err := strconv.ParseInt(string(c.b[:n]), 10, 64)
	return converted(c, n, v, err)
}

// Uint64 is Int for a uint64 field; a minus sign is json.Unmarshal's to
// refuse.
func (c *Cursor) Uint64() uint64 {
	n := c.integer()
	if c.bad {
		return 0
	}
	v, err := strconv.ParseUint(string(c.b[:n]), 10, 64)
	return converted(c, n, v, err)
}

// CanonInt is Int for a scan that must recognise the encoder's own
// bytes: -0 is an integer json.Unmarshal takes and strconv never writes.
func (c *Cursor) CanonInt() int {
	negative := c.Peek('-')
	v := c.Int()
	if negative && v == 0 {
		c.bad = true
	}
	return v
}

// Num consumes a JSON number literal — integer, optional fraction,
// optional exponent — and converts it as json.Unmarshal would; one out
// of float64's range is left for it to refuse.
func (c *Cursor) Num() float64 {
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
	return converted(c, i, f, err)
}

// Object consumes the start of a map value: null, which is a nil map
// and reports false, or the brace that opens an object.
func (c *Cursor) Object() bool {
	if c.Peek('n') {
		c.Lit("null")
		return false
	}
	c.Lit("{")
	c.first = true
	return !c.bad
}

// Member steps to the object's next member and reports whether there
// is one; the closing brace is consumed. A repeated key is not looked
// for: it keeps its last value, as it does in json.Unmarshal's maps.
func (c *Cursor) Member() bool {
	if c.Peek('}') {
		c.Lit("}")
		return false
	}
	if !c.first {
		c.Lit(",")
	}
	c.first = false
	return !c.bad
}
