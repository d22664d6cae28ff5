package stats

import (
	"math"
	"testing"
	"testing/quick"
)

func TestMeanCI(t *testing.T) {
	// n=4, mean=10, sd=2 => se=1, t(0.975, 3)=3.182.
	xs := []float64{8, 9, 11, 12}
	iv, err := MeanCI(xs, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, iv.Mean, 10, 1e-12, "ci mean")
	se := StdErr(xs)
	want := TQuantile(0.975, 3) * se
	approx(t, iv.HalfWidth(), want, 1e-9, "ci halfwidth")
	if !iv.Contains(10) {
		t.Error("interval should contain its mean")
	}
}

func TestMeanCIErrors(t *testing.T) {
	if _, err := MeanCI([]float64{1}, 0.95); err == nil {
		t.Error("singleton sample should error")
	}
	if _, err := MeanCI([]float64{1, 2}, 1.5); err == nil {
		t.Error("confidence > 1 should error")
	}
	if _, err := MeanCI([]float64{1, 2}, 0); err == nil {
		t.Error("confidence 0 should error")
	}
	if _, err := MeanCI([]float64{1, 2}, math.NaN()); err == nil {
		t.Error("confidence NaN should error")
	}
}

func TestIntervalOverlap(t *testing.T) {
	a := Interval{Lo: 0, Hi: 2}
	b := Interval{Lo: 1, Hi: 3}
	c := Interval{Lo: 2.5, Hi: 4}
	if !a.Overlaps(b) || !b.Overlaps(a) {
		t.Error("a and b should overlap")
	}
	if a.Overlaps(c) {
		t.Error("a and c should not overlap")
	}
	if !b.Overlaps(c) {
		t.Error("b and c should overlap")
	}
}

func TestCompareAlternativesDisjoint(t *testing.T) {
	a := []float64{1.0, 1.1, 0.9, 1.05}
	b := []float64{5.0, 5.1, 4.9, 5.05}
	cmp, err := CompareAlternatives(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Verdict != ALower {
		t.Errorf("verdict = %v, want ALower", cmp.Verdict)
	}
	cmp2, _ := CompareAlternatives(b, a, 0.95)
	if cmp2.Verdict != BLower {
		t.Errorf("verdict = %v, want BLower", cmp2.Verdict)
	}
}

func TestCompareAlternativesIndifferent(t *testing.T) {
	// Identical noisy samples: intervals overlap and each mean is inside
	// the other — the paper's "statistically indifferent" case.
	a := []float64{10, 12, 9, 11, 10.5}
	b := []float64{10.2, 11.8, 9.1, 11.2, 10.4}
	cmp, err := CompareAlternatives(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Verdict != Indifferent {
		t.Errorf("verdict = %v, want Indifferent", cmp.Verdict)
	}
}

func TestCompareAlternativesNeedsTTest(t *testing.T) {
	// Overlapping intervals but means outside each other's interval.
	a := []float64{10.0, 10.1, 9.9, 10.05, 9.95}
	b := []float64{10.15, 10.25, 10.05, 10.2, 10.1}
	cmp, err := CompareAlternatives(a, b, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if cmp.Verdict != NeedsTTest && cmp.Verdict != BLower {
		t.Errorf("verdict = %v, want NeedsTTest or a decision", cmp.Verdict)
	}
}

func TestVerdictString(t *testing.T) {
	for v, want := range map[Verdict]string{
		Indifferent: "indifferent",
		ALower:      "A lower",
		BLower:      "B lower",
		NeedsTTest:  "needs t-test",
	} {
		if v.String() != want {
			t.Errorf("Verdict(%d).String() = %q, want %q", int(v), v.String(), want)
		}
	}
	if Verdict(99).String() == "" {
		t.Error("unknown verdict should still render")
	}
}

func TestWelchT(t *testing.T) {
	// Hand-computable case: equal variances 2.5, n=5 each, mean gap 1.
	// sa=sb=0.5, se=1, t=-1, df = 1 / (0.25/4 + 0.25/4) = 8.
	a := []float64{1, 2, 3, 4, 5}
	b := []float64{2, 3, 4, 5, 6}
	tstat, df, p, err := WelchT(a, b)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, tstat, -1, 1e-9, "welch t")
	approx(t, df, 8, 1e-9, "welch df")
	want := 2 * (1 - TCDF(1, 8))
	approx(t, p, want, 1e-9, "welch p")
	if p < 0.3 || p > 0.4 {
		t.Errorf("welch p = %g, want ~0.347", p)
	}
}

func TestWelchTEdge(t *testing.T) {
	if _, _, _, err := WelchT([]float64{1}, []float64{1, 2}); err == nil {
		t.Error("short sample should error")
	}
	// Zero-variance equal samples: p = 1.
	_, _, p, err := WelchT([]float64{5, 5, 5}, []float64{5, 5, 5})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p, 1, 1e-12, "identical zero-variance p")
	// Zero-variance different samples: p = 0.
	_, _, p, err = WelchT([]float64{5, 5}, []float64{6, 6})
	if err != nil {
		t.Fatal(err)
	}
	approx(t, p, 0, 1e-12, "distinct zero-variance p")
}

// Property: the CI at higher confidence is wider.
func TestCIWidthMonotoneQuick(t *testing.T) {
	f := func(raw []uint8) bool {
		if len(raw) < 3 {
			return true
		}
		xs := make([]float64, len(raw))
		allSame := true
		for i, v := range raw {
			xs[i] = float64(v)
			if v != raw[0] {
				allSame = false
			}
		}
		if allSame {
			return true
		}
		iv90, err1 := MeanCI(xs, 0.90)
		iv99, err2 := MeanCI(xs, 0.99)
		if err1 != nil || err2 != nil {
			return false
		}
		return iv99.HalfWidth() >= iv90.HalfWidth()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// Property: the sample mean is always inside its own CI.
func TestCIContainsMeanQuick(t *testing.T) {
	f := func(raw []int8) bool {
		if len(raw) < 2 {
			return true
		}
		xs := make([]float64, len(raw))
		for i, v := range raw {
			xs[i] = float64(v)
		}
		iv, err := MeanCI(xs, 0.95)
		if err != nil {
			return false
		}
		return iv.Contains(Mean(xs)) && !math.IsNaN(iv.Lo) && !math.IsNaN(iv.Hi)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPairedT(t *testing.T) {
	// Same-workload before/after with a consistent 1-unit improvement
	// plus per-pair noise that cancels in differences only partially.
	before := []float64{10, 12, 14, 16, 18}
	after := []float64{9, 11, 13, 15, 17}
	tstat, df, p, ci, err := PairedT(before, after, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, df, 4, 0, "paired df")
	// Differences are exactly 1 with zero variance: infinite t, p=0.
	if !math.IsInf(tstat, 1) || p != 0 {
		t.Errorf("constant-difference t=%v p=%v", tstat, p)
	}
	approx(t, ci.Mean, 1, 1e-12, "diff mean")

	// Noisy but positive differences.
	after2 := []float64{9.5, 10.8, 13.4, 14.6, 17.2}
	tstat, _, p, ci, err = PairedT(before, after2, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	if tstat <= 0 || p >= 0.05 {
		t.Errorf("t=%g p=%g, want significant positive difference", tstat, p)
	}
	if ci.Contains(0) {
		t.Error("CI of a significant difference should exclude 0")
	}

	// Identical pairs: p = 1.
	_, _, p, _, err = PairedT(before, before, 0.95)
	if err != nil || p != 1 {
		t.Errorf("identical pairs p = %g, %v", p, err)
	}

	// Errors.
	if _, _, _, _, err := PairedT([]float64{1}, []float64{1, 2}, 0.95); err == nil {
		t.Error("length mismatch should error")
	}
	if _, _, _, _, err := PairedT([]float64{1}, []float64{1}, 0.95); err == nil {
		t.Error("single pair should error")
	}
}

func TestRelHalfWidth(t *testing.T) {
	iv := Interval{Mean: 100, Lo: 95, Hi: 105}
	approx(t, iv.RelHalfWidth(), 0.05, 1e-12, "rel half-width")

	// Sign of the mean is irrelevant: precision is about magnitude.
	neg := Interval{Mean: -100, Lo: -105, Hi: -95}
	approx(t, neg.RelHalfWidth(), 0.05, 1e-12, "negative mean")

	// A zero mean makes relative precision unattainable unless the
	// interval is degenerate — the stopping rule must stay conservative.
	if r := (Interval{Mean: 0, Lo: -1, Hi: 1}).RelHalfWidth(); !math.IsInf(r, 1) {
		t.Errorf("zero mean with width should be +Inf, got %g", r)
	}
	if r := (Interval{Mean: 0, Lo: 0, Hi: 0}).RelHalfWidth(); r != 0 {
		t.Errorf("degenerate zero interval should be 0, got %g", r)
	}

	// Consistency with MeanCI on a real sample.
	ci, err := MeanCI([]float64{9.9, 10.0, 10.1, 10.0, 9.95, 10.05}, 0.95)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ci.RelHalfWidth(), ci.HalfWidth()/ci.Mean, 1e-12, "MeanCI consistency")
}

// TestTCriticalSameBits: the lookup is TQuantile's value, not an
// approximation of it — asked once or again, in any order of n.
func TestTCriticalSameBits(t *testing.T) {
	for _, confidence := range []float64{0.8, 0.95, 0.999} {
		tc := NewTCritical(confidence)
		for _, n := range []int{5, 2, 30, 5, 3, 2, 1000} {
			alpha := 1 - confidence
			if got, want := tc.At(n), TQuantile(1-alpha/2, float64(n-1)); math.Float64bits(got) != math.Float64bits(want) {
				t.Errorf("confidence %g, n %d: At = %v, TQuantile = %v", confidence, n, got, want)
			}
		}
	}
}
