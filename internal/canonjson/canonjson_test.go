package canonjson

import (
	"encoding/json"
	"math"
	"strings"
	"testing"
)

// The two codecs' fuzz differentials (FuzzJSONCodec in internal/runstore,
// FuzzIndexCodec in internal/warehouse) hold these primitives to
// encoding/json through the documents built from them; the tables here
// pin each one on its own, at the edges.

func TestAppendAgainstMarshal(t *testing.T) {
	t.Parallel()
	for _, s := range []string{"", "plain", "a<b>&c", `quo"te`, `back\slash`, "tab\t", "\x00\x1f\x7f", "é", " ", "\xff", strings.Repeat("x", 300)} {
		want, _ := json.Marshal(s)
		if got := AppendString([]byte("p"), s); string(got) != "p"+string(want) {
			t.Errorf("AppendString(%q) = %s, json.Marshal gives %s", s, got[1:], want)
		}
	}
	for _, f := range []float64{0, math.Copysign(0, -1), 1, -1.5, 1e20, 1e21, 1e-6, 1e-7, 9.999999e-7, 5e-324, math.MaxFloat64, math.Pi, math.NaN(), math.Inf(1), math.Inf(-1)} {
		want, wantErr := json.Marshal(f)
		got, err := AppendFloat([]byte("p"), f)
		if wantErr != nil {
			// json.Marshal names the type too; the value's text is what both share.
			if err == nil || !strings.HasSuffix(wantErr.Error(), strings.TrimPrefix(err.Error(), "json: ")) || string(got) != "p" {
				t.Errorf("AppendFloat(%v) = %q, %v; json.Marshal says %v", f, got, err, wantErr)
			}
			continue
		}
		if err != nil || string(got) != "p"+string(want) {
			t.Errorf("AppendFloat(%v) = %s, %v; json.Marshal gives %s", f, got[1:], err, want)
		}
	}
	many := map[string]string{}
	for i := 0; i < 20; i++ { // more keys than sort on the stack
		many[strings.Repeat("k", i%5)+string(rune('a'+i))] = "v"
	}
	for _, m := range []map[string]string{nil, {}, {"b": "2", "a": "1", "": "<"}, many} {
		want, _ := json.Marshal(m)
		if got := AppendStrings(nil, m); string(got) != string(want) {
			t.Errorf("AppendStrings(%v) = %s, json.Marshal gives %s", m, got, want)
		}
	}
}

func TestCursorIntegers(t *testing.T) {
	t.Parallel()
	for _, tc := range []struct {
		doc      string
		i64, u64 bool // which readings take the literal
	}{
		{"0", true, true},
		{"-0", true, false},
		{"12", true, true},
		{"-12", true, false},
		{"9223372036854775807", true, true},
		{"9223372036854775808", false, true},
		{"-9223372036854775808", true, false},
		{"-9223372036854775809", false, false},
		{"18446744073709551615", false, true},
		{"18446744073709551616", false, false},
		{"01", false, false},
		{"", false, false},
		{"-", false, false},
		{"+1", false, false},
		{"1.5", true, true}, // the integer part; the rest is the caller's to refuse
	} {
		c := NewCursor([]byte(tc.doc))
		if c.Int64(); !c.bad != tc.i64 {
			t.Errorf("Int64 over %q: accepted = %v, want %v", tc.doc, !c.bad, tc.i64)
		}
		c = NewCursor([]byte(tc.doc))
		if c.Uint64(); !c.bad != tc.u64 {
			t.Errorf("Uint64 over %q: accepted = %v, want %v", tc.doc, !c.bad, tc.u64)
		}
	}
	c := NewCursor([]byte(`-42,18446744073709551615,-0`))
	if v := c.Int64(); v != -42 {
		t.Errorf("Int64 = %d, want -42", v)
	}
	c.Lit(",")
	if v := c.Uint64(); v != math.MaxUint64 {
		t.Errorf("Uint64 = %d, want MaxUint64", v)
	}
	c.Lit(",")
	if c.CanonInt(); c.Done() {
		t.Error("CanonInt took -0, which no encoder writes")
	}
}

func TestCursorAcceptNeverFails(t *testing.T) {
	t.Parallel()
	c := NewCursor([]byte(`{"a":1}`))
	if c.Accept([]byte(`{"b"`)) || len(c.Rest()) != 7 {
		t.Fatal("Accept consumed input it does not start with")
	}
	if !c.Accept([]byte(`{"a":`)) || string(c.Rest()) != "1}" {
		t.Fatalf("Accept left %q", c.Rest())
	}
	c.Lit("2") // fails the walk
	if c.Accept([]byte("1")) || c.Done() {
		t.Fatal("Accept went on after the walk failed")
	}
}
