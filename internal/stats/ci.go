package stats

import (
	"fmt"
	"math"
)

// Interval is a two-sided confidence interval for a mean.
//
// The paper's "pictorial games" chapter warns against plotting random
// quantities without confidence intervals: overlapping intervals can mean
// the two quantities are statistically indifferent. Interval and
// CompareAlternatives encode exactly that check.
type Interval struct {
	Mean       float64
	Lo, Hi     float64
	Confidence float64 // e.g. 0.95
	N          int
}

// HalfWidth returns half the interval width.
func (iv Interval) HalfWidth() float64 { return (iv.Hi - iv.Lo) / 2 }

// RelHalfWidth returns the half-width relative to the magnitude of the
// mean — the precision of the measurement in the paper's sense ("the
// mean is known to within ±r%"). Sequential analysis stops replicating
// once this drops below a target. For a zero mean the ratio is
// undefined: a degenerate interval reports 0 (perfectly precise), any
// other reports +Inf (relative precision unattainable), so a
// "RelHalfWidth <= target" stopping rule stays conservative.
func (iv Interval) RelHalfWidth() float64 {
	hw := iv.HalfWidth()
	if iv.Mean == 0 {
		if hw == 0 {
			return 0
		}
		return math.Inf(1)
	}
	return hw / math.Abs(iv.Mean)
}

// Contains reports whether v lies inside the interval (inclusive).
func (iv Interval) Contains(v float64) bool { return v >= iv.Lo && v <= iv.Hi }

// Overlaps reports whether two intervals overlap.
func (iv Interval) Overlaps(other Interval) bool {
	return iv.Lo <= other.Hi && other.Lo <= iv.Hi
}

// String renders the interval as "mean [lo, hi] @95%".
func (iv Interval) String() string {
	return fmt.Sprintf("%.4g [%.4g, %.4g] @%.0f%%", iv.Mean, iv.Lo, iv.Hi, iv.Confidence*100)
}

// MeanCI returns the confidence interval for the mean of xs at the given
// confidence level (e.g. 0.95), using the Student-t distribution with n-1
// degrees of freedom. It returns an error for samples with fewer than two
// observations or a confidence outside (0, 1).
func MeanCI(xs []float64, confidence float64) (Interval, error) {
	// A sample too small is reported before a bad confidence, by t.MeanCI.
	if len(xs) >= 2 && (confidence <= 0 || confidence >= 1) {
		return Interval{}, fmt.Errorf("stats: confidence must be in (0,1), got %g", confidence)
	}
	t := NewTCritical(confidence)
	return t.MeanCI(xs)
}

// TCritical is the two-sided Student-t critical value at one confidence
// level, looked up by sample size: TQuantile(1-alpha/2, n-1), computed by
// that call — a 200-step bisection — the first time an n is asked for and
// remembered after. A pass that builds an interval per cell (the
// regression gate, a warehouse query) meets a handful of distinct n, so
// it holds one TCritical and pays per n, not per cell. Not safe for
// concurrent use.
type TCritical struct {
	confidence float64
	known      []tCritical
}

// tCritical is the critical value for samples of n observations.
type tCritical struct {
	n int
	t float64
}

// NewTCritical returns the lookup for one confidence level, which must
// be in (0, 1).
func NewTCritical(confidence float64) TCritical { return TCritical{confidence: confidence} }

// At returns the critical value for a sample of n >= 2 observations.
func (c *TCritical) At(n int) float64 {
	for _, k := range c.known {
		if k.n == n {
			return k.t
		}
	}
	alpha := 1 - c.confidence
	t := TQuantile(1-alpha/2, float64(n-1))
	c.known = append(c.known, tCritical{n, t})
	return t
}

// MeanCI is the package's MeanCI at c's confidence level.
func (c *TCritical) MeanCI(xs []float64) (Interval, error) {
	if len(xs) < 2 {
		return Interval{}, fmt.Errorf("stats: confidence interval needs at least 2 observations, got %d", len(xs))
	}
	m := Mean(xs)
	se := StdErr(xs)
	t := c.At(len(xs))
	return Interval{
		Mean:       m,
		Lo:         m - t*se,
		Hi:         m + t*se,
		Confidence: c.confidence,
		N:          len(xs),
	}, nil
}

// Verdict classifies the outcome of comparing two measured alternatives.
type Verdict int

const (
	// Indifferent means the confidence intervals overlap AND each mean
	// lies within the other's interval: no statistically meaningful
	// difference can be claimed.
	Indifferent Verdict = iota
	// ALower means alternative A is statistically lower (better, for a
	// time metric) than B.
	ALower
	// BLower means alternative B is statistically lower than A.
	BLower
	// NeedsTTest means the intervals overlap but neither mean is inside
	// the other's interval; a t-test on the difference is required to
	// decide (Jain's three-case rule for comparing alternatives).
	NeedsTTest
)

func (v Verdict) String() string {
	switch v {
	case Indifferent:
		return "indifferent"
	case ALower:
		return "A lower"
	case BLower:
		return "B lower"
	case NeedsTTest:
		return "needs t-test"
	default:
		return fmt.Sprintf("Verdict(%d)", int(v))
	}
}

// Comparison is the result of CompareAlternatives.
type Comparison struct {
	A, B    Interval
	Verdict Verdict
}

// CompareAlternatives applies the visual test the paper recommends for two
// unpaired alternatives measured with replication:
//
//   - disjoint intervals: the one with the lower mean is better;
//   - overlapping intervals with each mean inside the other interval:
//     statistically indifferent;
//   - overlapping otherwise: a t-test is needed.
func CompareAlternatives(a, b []float64, confidence float64) (Comparison, error) {
	ia, err := MeanCI(a, confidence)
	if err != nil {
		return Comparison{}, fmt.Errorf("alternative A: %w", err)
	}
	ib, err := MeanCI(b, confidence)
	if err != nil {
		return Comparison{}, fmt.Errorf("alternative B: %w", err)
	}
	c := Comparison{A: ia, B: ib}
	switch {
	case !ia.Overlaps(ib):
		if ia.Mean < ib.Mean {
			c.Verdict = ALower
		} else {
			c.Verdict = BLower
		}
	case ia.Contains(ib.Mean) && ib.Contains(ia.Mean):
		c.Verdict = Indifferent
	default:
		c.Verdict = NeedsTTest
	}
	return c, nil
}

// WelchT performs Welch's unequal-variance t-test on two samples and returns
// the t statistic, the Welch-Satterthwaite degrees of freedom, and the
// two-sided p-value.
func WelchT(a, b []float64) (t, df, p float64, err error) {
	if len(a) < 2 || len(b) < 2 {
		return 0, 0, 0, fmt.Errorf("stats: Welch t-test needs >=2 observations per sample, got %d and %d", len(a), len(b))
	}
	ma, mb := Mean(a), Mean(b)
	va, vb := Variance(a), Variance(b)
	na, nb := float64(len(a)), float64(len(b))
	sa, sb := va/na, vb/nb
	se := math.Sqrt(sa + sb)
	if se == 0 {
		if ma == mb {
			return 0, na + nb - 2, 1, nil
		}
		return math.Inf(sign(ma - mb)), na + nb - 2, 0, nil
	}
	t = (ma - mb) / se
	df = (sa + sb) * (sa + sb) / (sa*sa/(na-1) + sb*sb/(nb-1))
	p = 2 * (1 - TCDF(math.Abs(t), df))
	return t, df, p, nil
}

func sign(x float64) int {
	if x < 0 {
		return -1
	}
	return 1
}

// PairedT performs a paired t-test: for before/after measurements on the
// SAME workloads (e.g. per-query times of two systems over the same query
// set), the test runs on the per-pair differences. It returns the t
// statistic, degrees of freedom (n-1), the two-sided p-value, and the
// confidence interval of the mean difference at the given confidence.
func PairedT(a, b []float64, confidence float64) (t, df, p float64, diffCI Interval, err error) {
	if len(a) != len(b) {
		return 0, 0, 0, Interval{}, fmt.Errorf("stats: paired samples must have equal length, got %d and %d", len(a), len(b))
	}
	if len(a) < 2 {
		return 0, 0, 0, Interval{}, fmt.Errorf("stats: paired t-test needs >= 2 pairs, got %d", len(a))
	}
	diffs := make([]float64, len(a))
	for i := range a {
		diffs[i] = a[i] - b[i]
	}
	diffCI, err = MeanCI(diffs, confidence)
	if err != nil {
		return 0, 0, 0, Interval{}, err
	}
	se := StdErr(diffs)
	df = float64(len(a) - 1)
	if se == 0 {
		if Mean(diffs) == 0 {
			return 0, df, 1, diffCI, nil
		}
		return math.Inf(sign(Mean(diffs))), df, 0, diffCI, nil
	}
	t = Mean(diffs) / se
	p = 2 * (1 - TCDF(math.Abs(t), df))
	return t, df, p, diffCI, nil
}

// QueriesPerSecond is the paper's basic throughput metric: completed
// queries per elapsed second. Returns NaN for non-positive elapsed time.
func QueriesPerSecond(queries int, elapsedSeconds float64) float64 {
	if elapsedSeconds <= 0 {
		return math.NaN()
	}
	return float64(queries) / elapsedSeconds
}
