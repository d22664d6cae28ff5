package canonjson

import (
	"math"
	"math/rand/v2"
	"regexp"
	"strconv"
	"strings"
	"testing"
)

// TestShortestAgreesWithAppendFloat holds Shortest to what it stands in
// for: on every literal, true exactly when AppendFloat writes that literal
// for the value it parses to. The literals are seeded in every regime the
// verdict has — integers and fixed three-decimal values, full-precision
// doubles and subnormals, values from 1e21 up and below 1e-6, negatives
// and -0 — and spelled canonically and not: trailing zeros, leading zeros
// in a fraction or an exponent, 1.0, the exponent form of a plain number,
// and 15-, 16- and 17-digit spellings of one value. Every literal is also
// one Cursor.Num must read whole, as strconv.ParseFloat does, to the bit:
// its exact conversion is taken by the plain decimals of up to 19 digits,
// and rounds the ties among them — 2^53 + 1, 2^52 + 0.5 — to even, and
// only those. Spellings repeat — 3 000 rounds of eight generators give
// some 300 000, of which some 175 000 are distinct — and each distinct one
// is checked once.
func TestShortestAgreesWithAppendFloat(t *testing.T) {
	t.Parallel()
	n := 3_000
	if testing.Short() {
		n = 300
	}
	literals := []string{
		"0", "-0", "0.0", "-0.0", "1", "-1", "1.0", "10", "100", "1.5", "1.50", "-1.5",
		"0.1", "0.10", "0.3", "0.30000000000000004", "0.000001", "0.0000010", "0.0000001",
		"1e-7", "1e-6", "1e-06", "1E-7", "1e0", "1e+0", "15e-1", "1.5e0", "150e-2", "1e007",
		"1e20", "1e21", "1e+21", "100000000000000000000", "1000000000000000000000",
		"999999999999999999999", "999999999999999000000", "123456789012345",
		"1234567890123456", "12345678901234567", "9007199254740993", "0.1234567890123456789",
		"5e-324", "4.9406564584124654e-324", "2.2250738585072014e-308", "2.225073858507201e-308",
		"1.7976931348623157e+308", "1.7976931348623157e308",
		"9007199254740991", "9007199254740992", "9007199254740995", "-9007199254740993", "9007199254740993.0",
		"4503599627370496.5", "4503599627370497.5", "4503599627370496.50000000000000001",
		"1234567890123456789", "9999999999999999999", "1844674407370955161.5", "0.9999999999999999999",
		"818753.0273036894505", "62342264771117.28516", // a remainder past a bit pattern that is a tie
		"12345678901234567890", "18446744073709551615", "18446744073709551616", "99999999999999999999",
		"0.12345678901234567891", "0.0000000000000000001", "0.00000000000000000001", "1e999", "-1e999",
	}
	rng := rand.New(rand.NewPCG(28, 1))
	spell := func(v float64) {
		canonical, err := AppendFloat(nil, v)
		if err != nil {
			return
		}
		literals = append(literals,
			string(canonical),
			strconv.FormatFloat(v, 'f', -1, 64),
			strconv.FormatFloat(v, 'e', -1, 64),
			strconv.FormatFloat(v, 'e', 14, 64), // 15 significant digits
			strconv.FormatFloat(v, 'e', 15, 64), // 16
			strconv.FormatFloat(v, 'e', 16, 64), // 17
			strconv.FormatFloat(v, 'g', 15, 64),
			strconv.FormatFloat(v, 'g', 16, 64),
			strconv.FormatFloat(v, 'g', 17, 64),
		)
		if a := math.Abs(v); a >= 1e-6 && a < 1e21 {
			for _, prec := range []int{0, 3, 15, 16, 17} {
				literals = append(literals, strconv.FormatFloat(v, 'f', prec, 64))
			}
		}
		if strings.Contains(string(canonical), ".") {
			literals = append(literals, string(canonical)+"0", string(canonical)+"00")
		} else if !strings.ContainsAny(string(canonical), "e") {
			literals = append(literals, string(canonical)+".0")
		}
	}
	for i := 0; i < n; i++ {
		for _, v := range []float64{
			float64(rng.IntN(2_000_001) - 1_000_000),
			float64(rng.IntN(2_000_000)-1_000_000) / 1000,
			math.Float64frombits(rng.Uint64()),
			math.Float64frombits(rng.Uint64N(1 << 52)), // subnormal
			rng.Float64() * math.Pow(10, float64(21+rng.IntN(40))),
			rng.Float64() * math.Pow(10, -float64(6+rng.IntN(40))),
			-rng.NormFloat64() * 1000,
			math.Copysign(0, -1),
		} {
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				spell(v)
			}
		}
	}
	checked := 0
	seen := make(map[string]bool, len(literals))
	for _, lit := range literals {
		if seen[lit] {
			continue // both verdicts are functions of the literal alone
		}
		seen[lit] = true
		v, err := strconv.ParseFloat(lit, 64)
		c := NewCursor([]byte(lit))
		if got := c.Num(); c.bad != (err != nil) || !c.bad && (len(c.Rest()) != 0 || math.Float64bits(got) != math.Float64bits(v)) {
			t.Errorf("Num(%s) = %v (%#x), %d byte(s) left, failed %v; strconv.ParseFloat gives %v (%#x), %v",
				lit, got, math.Float64bits(got), len(c.Rest()), c.bad, v, math.Float64bits(v), err)
		}
		if err != nil {
			continue // out of range: json.Unmarshal refuses it before any verdict
		}
		checked++
		want, err := AppendFloat(nil, v)
		if got := Shortest([]byte(lit), v); got != (err == nil && string(want) == lit) {
			t.Errorf("Shortest(%s, %v) = %v; AppendFloat writes %s", lit, v, got, want)
		}
	}
	if checked < 10*n {
		t.Fatalf("only %d literals checked", checked)
	}
}

// FuzzNum holds Cursor.Num to strconv.ParseFloat on arbitrary bytes. The
// extent of Num's scan is a minus, digits, a point and digits, and an
// exponent, each part as far as it goes; when that extent is a JSON number
// within float64's range, Num must consume exactly it and return
// ParseFloat's value bits, and otherwise fail, consuming nothing.
func FuzzNum(f *testing.F) {
	extentOf := regexp.MustCompile(`^-?[0-9]*(\.[0-9]*)?([eE][+-]?[0-9]*)?`)
	jsonNumber := regexp.MustCompile(`^-?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?$`)
	for _, seed := range []string{
		"0", "-0", "-0.0", "1.5", "0.30000000000000004", "9007199254740993", "4503599627370496.5",
		"1234567890123456789", "12345678901234567890", "0.1234567890123456789", "1e-7", "1E+21",
		"5e-324", "1e999", "01", "1.", "1.e5", "-", "+1", "1e", "1e+", ".5", "1.5,", "7}", "",
	} {
		f.Add([]byte(seed))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		extent := extentOf.Find(data)
		want, err := strconv.ParseFloat(string(extent), 64)
		fails := err != nil || !jsonNumber.Match(extent)
		c := NewCursor(data)
		got := c.Num()
		consumed := len(data) - len(c.Rest())
		switch {
		case fails && (!c.bad || consumed != 0):
			t.Errorf("Num(%q) = %v, consuming %d; want a failure consuming nothing", data, got, consumed)
		case !fails && (c.bad || consumed != len(extent) || math.Float64bits(got) != math.Float64bits(want)):
			t.Errorf("Num(%q) = %v (%#x), consuming %d, failed %v; strconv.ParseFloat(%q) = %v (%#x)",
				data, got, math.Float64bits(got), consumed, c.bad, extent, want, math.Float64bits(want))
		}
	})
}
