// Package vdb is a small in-memory DBMS built as the substrate for the
// paper's database experiments. It provides typed columnar storage, a
// logical plan DSL, and two executors with deliberately contrasting
// execution models:
//
//   - RowEngine: a Volcano-style tuple-at-a-time interpreter (the paper's
//     MySQL profile shape: time goes into per-tuple interpretation);
//   - ColumnEngine: a column-at-a-time materializing executor (the paper's
//     MonetDB/MIL profile shape: time goes into data movement).
//
// Both engines do real computation over real slices and must produce
// identical results — a property the test suite checks extensively. When an
// execution context carries a hwsim machine and virtual clock, the engines
// additionally charge modeled hardware costs, which is what makes the
// paper's timing tables reproducible deterministically.
package vdb

import (
	"fmt"
	"strconv"
)

// Type is a column type.
type Type int

const (
	// TInt is a 64-bit integer (also used for dates, as days since
	// 1970-01-01).
	TInt Type = iota
	// TFloat is a 64-bit float.
	TFloat
	// TString is a variable-length string.
	TString
)

func (t Type) String() string {
	switch t {
	case TInt:
		return "int"
	case TFloat:
		return "float"
	case TString:
		return "string"
	default:
		return fmt.Sprintf("Type(%d)", int(t))
	}
}

// Value is a single typed value, used by the tuple-at-a-time engine.
type Value struct {
	Typ Type
	I   int64
	F   float64
	S   string
}

// IntVal builds an integer value.
func IntVal(i int64) Value { return Value{Typ: TInt, I: i} }

// FloatVal builds a float value.
func FloatVal(f float64) Value { return Value{Typ: TFloat, F: f} }

// StrVal builds a string value.
func StrVal(s string) Value { return Value{Typ: TString, S: s} }

// AsFloat converts numeric values to float64.
func (v Value) AsFloat() float64 {
	if v.Typ == TInt {
		return float64(v.I)
	}
	return v.F
}

// String renders the value in C-locale formatting (the paper's T9 warns
// what locale-dependent rendering does to copy-pasted results).
func (v Value) String() string {
	switch v.Typ {
	case TInt:
		return strconv.FormatInt(v.I, 10)
	case TFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	default:
		return v.S
	}
}

// Equal compares two values for semantic equality (ints and floats compare
// numerically across types).
func (v Value) Equal(o Value) bool {
	if v.Typ == TString || o.Typ == TString {
		return v.Typ == o.Typ && v.S == o.S
	}
	return v.AsFloat() == o.AsFloat()
}

// Less orders two values of the same kind (numeric or string).
func (v Value) Less(o Value) bool {
	if v.Typ == TString && o.Typ == TString {
		return v.S < o.S
	}
	return v.AsFloat() < o.AsFloat()
}

// Column is a typed column vector. Exactly one of the backing slices is
// populated, per Type.
type Column struct {
	Name string
	Type Type

	Ints   []int64
	Floats []float64
	Strs   []string
}

// NewIntColumn builds an int column.
func NewIntColumn(name string, vals []int64) *Column {
	return &Column{Name: name, Type: TInt, Ints: vals}
}

// NewFloatColumn builds a float column.
func NewFloatColumn(name string, vals []float64) *Column {
	return &Column{Name: name, Type: TFloat, Floats: vals}
}

// NewStringColumn builds a string column.
func NewStringColumn(name string, vals []string) *Column {
	return &Column{Name: name, Type: TString, Strs: vals}
}

// Len returns the number of values.
func (c *Column) Len() int {
	switch c.Type {
	case TInt:
		return len(c.Ints)
	case TFloat:
		return len(c.Floats)
	default:
		return len(c.Strs)
	}
}

// Value returns the i-th value boxed.
func (c *Column) Value(i int) Value {
	switch c.Type {
	case TInt:
		return IntVal(c.Ints[i])
	case TFloat:
		return FloatVal(c.Floats[i])
	default:
		return StrVal(c.Strs[i])
	}
}

// Append adds a boxed value; the value's type must match the column's.
func (c *Column) Append(v Value) error {
	if v.Typ != c.Type {
		// Permit int -> float widening for aggregate outputs.
		if c.Type == TFloat && v.Typ == TInt {
			c.Floats = append(c.Floats, float64(v.I))
			return nil
		}
		return fmt.Errorf("vdb: cannot append %s value to %s column %q", v.Typ, c.Type, c.Name)
	}
	switch c.Type {
	case TInt:
		c.Ints = append(c.Ints, v.I)
	case TFloat:
		c.Floats = append(c.Floats, v.F)
	default:
		c.Strs = append(c.Strs, v.S)
	}
	return nil
}

// Gather builds a new column containing the values at the given row
// indices, in order.
func (c *Column) Gather(idx []int) *Column {
	out := &Column{Name: c.Name, Type: c.Type}
	switch c.Type {
	case TInt:
		out.Ints = make([]int64, len(idx))
		for i, j := range idx {
			out.Ints[i] = c.Ints[j]
		}
	case TFloat:
		out.Floats = make([]float64, len(idx))
		for i, j := range idx {
			out.Floats[i] = c.Floats[j]
		}
	default:
		out.Strs = make([]string, len(idx))
		for i, j := range idx {
			out.Strs[i] = c.Strs[j]
		}
	}
	return out
}

// widthBytesHook, when set, is called by every WidthBytes: a test counts
// the calls a query makes through it (export_test.go).
var widthBytesHook func()

// WidthBytes estimates the in-memory width of one value, for the hardware
// cost model: 8 bytes for numerics, 16 + average length for strings.
func (c *Column) WidthBytes() int {
	if widthBytesHook != nil {
		widthBytesHook()
	}
	if c.Type != TString {
		return 8
	}
	n := len(c.Strs)
	if n == 0 {
		return 16
	}
	total := 0
	for _, s := range c.Strs {
		total += len(s)
	}
	return 16 + total/n
}
