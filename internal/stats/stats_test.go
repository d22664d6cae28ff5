package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.IsNaN(got) != math.IsNaN(want) || math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v (tol %g)", msg, got, want, tol)
	}
}

func TestDescriptive(t *testing.T) {
	xs := []float64{2, 4, 4, 4, 5, 5, 7, 9}
	approx(t, Mean(xs), 5, 1e-12, "mean")
	approx(t, Sum(xs), 40, 1e-12, "sum")
	approx(t, Variance(xs), 32.0/7, 1e-12, "variance")
	approx(t, StdDev(xs), math.Sqrt(32.0/7), 1e-12, "stddev")
	approx(t, Min(xs), 2, 0, "min")
	approx(t, Max(xs), 9, 0, "max")
	approx(t, Median(xs), 4.5, 1e-12, "median")
}

func TestEmptyAndDegenerate(t *testing.T) {
	if !math.IsNaN(Mean(nil)) {
		t.Error("mean of empty should be NaN")
	}
	if !math.IsNaN(Variance([]float64{1})) {
		t.Error("variance of singleton should be NaN")
	}
	if !math.IsNaN(Median(nil)) {
		t.Error("median of empty should be NaN")
	}
}

func TestPercentile(t *testing.T) {
	xs := []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}
	approx(t, Percentile(xs, 0), 1, 0, "p0")
	approx(t, Percentile(xs, 100), 10, 0, "p100")
	approx(t, Percentile(xs, 50), 5.5, 1e-12, "p50")
	approx(t, Percentile(xs, 90), 9.1, 1e-9, "p90")
	if !math.IsNaN(Percentile(xs, -1)) || !math.IsNaN(Percentile(xs, 101)) {
		t.Error("out-of-range percentile should be NaN")
	}
	// Percentile must not modify its input.
	ys := []float64{3, 1, 2}
	Percentile(ys, 50)
	if ys[0] != 3 || ys[1] != 1 || ys[2] != 2 {
		t.Error("Percentile mutated its input")
	}
}

func TestGeoMean(t *testing.T) {
	approx(t, GeoMean([]float64{1, 4}), 2, 1e-12, "geomean{1,4}")
	approx(t, GeoMean([]float64{2, 2, 2}), 2, 1e-12, "geomean constant")
	if !math.IsNaN(GeoMean([]float64{1, -1})) {
		t.Error("geomean with nonpositive should be NaN")
	}
}

// Property: mean is translation-equivariant and scale-equivariant.
func TestMeanPropertiesQuick(t *testing.T) {
	f := func(raw []uint8, shift uint8) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		return math.Abs(Mean(ys)-(Mean(xs)+float64(shift))) < 1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: variance is translation-invariant.
func TestVariancePropertiesQuick(t *testing.T) {
	f := func(raw []uint8, shift uint8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		ys := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
			ys[i] = float64(v) + float64(shift)
		}
		return math.Abs(Variance(ys)-Variance(xs)) < 1e-6
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: min <= median <= max, and min <= mean <= max.
func TestOrderingPropertiesQuick(t *testing.T) {
	f := func(raw []int16) bool {
		if len(raw) == 0 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		lo, hi := Min(xs), Max(xs)
		med, mean := Median(xs), Mean(xs)
		return lo <= med && med <= hi && lo-1e-9 <= mean && mean <= hi+1e-9
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
