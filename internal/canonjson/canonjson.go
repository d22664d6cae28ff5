// Package canonjson holds the primitives of the repository's
// hand-written JSON codecs — the record's (internal/runstore/json.go) and
// the warehouse run document's (internal/warehouse/codec.go): append
// functions whose bytes are json.Marshal's, and a cursor that walks a
// document written that way front to back. encoding/json stays the
// specification on both sides: whatever is not plain (escapes, non-ASCII,
// control characters) the append functions hand to json.Marshal, and a
// document the cursor does not recognise is the caller's to hand to
// json.Unmarshal — the cursor only ever says "canonical, and here is
// what it holds" or "not for me". The cursor converts a number in the
// pass that finds its end: a plain decimal of up to 19 digits exactly, by
// integer arithmetic, anything else (an exponent, more digits) through
// strconv.ParseFloat — the same float64 either way.
package canonjson

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"math/bits"
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

// Shortest reports whether literal, a JSON number that parses to v, is
// what AppendFloat writes for v. It decides without formatting when
// literal is a plain positional decimal of at most 15 significant digits
// and v lies where AppendFloat writes positional decimals: no two such
// decimals parse to the same float64, so none shorter reaches v and
// AppendFloat's digits are literal's own — literal is canonical exactly
// when its fraction, if any, ends in a nonzero digit. Any other literal
// (an exponent, more digits, v outside that range) is compared with
// AppendFloat's bytes.
func Shortest(literal []byte, v float64) bool {
	digits, first, last, point := 0, -1, -1, false
	for i, ch := range literal {
		switch {
		case ch >= '1' && ch <= '9':
			if first < 0 {
				first = digits
			}
			last = digits
			digits++
		case ch == '0':
			digits++
		case ch == '.':
			point = true
		case ch == '-' && i == 0:
		default:
			digits = -1 // an exponent: not positional
		}
		if digits < 0 {
			break
		}
	}
	if digits >= 0 {
		if point && literal[len(literal)-1] == '0' {
			return false // AppendFloat never ends a fraction in zero
		}
		if abs := math.Abs(v); last-first < 15 && (abs == 0 || abs >= 1e-6 && abs < 1e21) {
			return true
		}
	}
	var buf [32]byte
	want, err := AppendFloat(buf[:0], v)
	return err == nil && bytes.Equal(want, literal)
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
//
// The pass that finds the literal's end also adds its digits, from the
// first nonzero one on, into an integer mantissa. A positional literal
// (no exponent) with at most 19 such digits and at most 19 after the
// point is then converted exactly, without strconv: the mantissa over a
// power of ten, rounded to nearest with ties to even — the float64
// strconv.ParseFloat returns. Any other literal (an exponent, more
// digits) goes to ParseFloat, on the extent the pass already found.
func (c *Cursor) Num() float64 {
	if c.bad {
		return 0
	}
	b := c.b
	i := 0
	negative := i < len(b) && b[i] == '-'
	if negative {
		i++
	}
	var mant uint64   // exact while sig <= 19: 10^19 - 1 < 2^64
	sig, frac := 0, 0 // digits from the first nonzero one on; digits after the point
	start := i
	for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
		if mant != 0 || b[i] != '0' {
			mant = mant*10 + uint64(b[i]-'0')
			sig++
		}
	}
	if n := i - start; n == 0 || n > 1 && b[start] == '0' {
		c.bad = true
		return 0
	}
	if i < len(b) && b[i] == '.' {
		i++
		start = i
		for ; i < len(b) && b[i] >= '0' && b[i] <= '9'; i++ {
			if mant != 0 || b[i] != '0' {
				mant = mant*10 + uint64(b[i]-'0')
				sig++
			}
		}
		if frac = i - start; frac == 0 {
			c.bad = true
			return 0
		}
	}
	exact := sig <= 19 && frac <= 19
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		exact = false
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		start = i
		for i < len(b) && b[i] >= '0' && b[i] <= '9' {
			i++
		}
		if i == start {
			c.bad = true
			return 0
		}
	}
	if !exact {
		f, err := strconv.ParseFloat(string(b[:i]), 64)
		return converted(c, i, f, err)
	}
	c.b = b[i:]
	var f float64
	if mant < 1<<53 {
		f = float64(mant) / pow10[frac] // both exact, so the one rounding is the quotient's
	} else {
		f = quotient(mant, uint64(pow10[frac]))
	}
	if negative {
		f = -f
	}
	return f
}

// pow10 holds the powers of ten a positional literal divides by, each
// exactly a float64 (and, up to 1e19, a uint64).
var pow10 = [20]float64{1e0, 1e1, 1e2, 1e3, 1e4, 1e5, 1e6, 1e7, 1e8, 1e9,
	1e10, 1e11, 1e12, 1e13, 1e14, 1e15, 1e16, 1e17, 1e18, 1e19}

// quotient returns the float64 nearest to n/d, ties to even, for n from
// 2^53 and d a power of ten up to 1e19. n is shifted so that the 128-bit
// quotient has 63 or 64 bits: its top 53 are the float's significand, the
// bits below them and the remainder decide the rounding.
func quotient(n, d uint64) float64 {
	shift := 63 - bits.Len64(n) + bits.Len64(d) // n<<shift / d lies in [2^62, 2^64)
	var hi, lo uint64
	if shift < 64 {
		hi, lo = n>>(64-shift), n<<shift
	} else {
		hi = n << (shift - 64)
	}
	q, r := bits.Div64(hi, lo, d)
	drop := 11 - bits.LeadingZeros64(q) // bits below the significand: 11 or 10
	sig, rest, half := q>>drop, q&(1<<drop-1), uint64(1)<<(drop-1)
	if rest > half || rest == half && (r != 0 || sig&1 == 1) {
		sig++
	}
	exp := 52 + drop - shift // q>>drop times 2^(drop-shift), as a float64 exponent
	if sig == 1<<53 {
		sig >>= 1
		exp++
	}
	return math.Float64frombits(uint64(exp+1023)<<52 | sig&(1<<52-1))
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
