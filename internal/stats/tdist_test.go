package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestLnGamma(t *testing.T) {
	cases := []struct{ x, want float64 }{
		{1, 0},
		{2, 0},
		{3, math.Log(2)},
		{4, math.Log(6)},
		{5, math.Log(24)},
		{0.5, math.Log(math.Sqrt(math.Pi))},
	}
	for _, c := range cases {
		approx(t, lnGamma(c.x), c.want, 1e-10, "lnGamma")
	}
}

func TestTCDFKnownValues(t *testing.T) {
	// Classic t-table values: quantile t such that CDF(t) = 0.975.
	cases := []struct{ df, t975 float64 }{
		{1, 12.706},
		{2, 4.303},
		{5, 2.571},
		{10, 2.228},
		{30, 2.042},
		{120, 1.980},
	}
	for _, c := range cases {
		got := TQuantile(0.975, c.df)
		approx(t, got, c.t975, 0.01, "t quantile df")
	}
}

func TestTCDFSymmetry(t *testing.T) {
	for _, df := range []float64{1, 3, 10, 50} {
		for _, x := range []float64{0.5, 1, 2, 5} {
			p1 := TCDF(x, df)
			p2 := TCDF(-x, df)
			approx(t, p1+p2, 1, 1e-10, "t CDF symmetry")
		}
	}
	approx(t, TCDF(0, 7), 0.5, 1e-12, "t CDF at 0")
}

func TestTQuantileRoundTrip(t *testing.T) {
	f := func(pRaw, dfRaw uint8) bool {
		p := 0.01 + 0.98*float64(pRaw)/255 // p in [0.01, 0.99]
		df := 1 + float64(dfRaw%60)
		q := TQuantile(p, df)
		return math.Abs(TCDF(q, df)-p) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestTLargeDFApproachesNormal(t *testing.T) {
	// For large df, t quantile approaches the normal quantile 1.95996.
	got := TQuantile(0.975, 1e6)
	approx(t, got, 1.959964, 1e-3, "t(inf) ~ normal")
}

func TestIncompleteBetaEdges(t *testing.T) {
	approx(t, RegularizedIncompleteBeta(2, 3, 0), 0, 0, "I_0")
	approx(t, RegularizedIncompleteBeta(2, 3, 1), 1, 0, "I_1")
	// I_x(1,1) = x (uniform distribution CDF).
	for _, x := range []float64{0.1, 0.25, 0.5, 0.9} {
		approx(t, RegularizedIncompleteBeta(1, 1, x), x, 1e-10, "I_x(1,1)")
	}
}

func TestTCDFInvalidDF(t *testing.T) {
	if !math.IsNaN(TCDF(1, 0)) || !math.IsNaN(TCDF(1, -3)) {
		t.Error("non-positive df should yield NaN")
	}
	if !math.IsNaN(TQuantile(0.5, -1)) {
		t.Error("non-positive df quantile should yield NaN")
	}
}
