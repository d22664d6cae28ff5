package canonjson

import (
	"math"
	"math/rand/v2"
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
// and 15-, 16- and 17-digit spellings of one value.
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
	for _, lit := range literals {
		v, err := strconv.ParseFloat(lit, 64)
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
