package stats

import "math"

// This file implements the Student-t distribution from scratch (stdlib has
// no statistics package). The CDF goes through the regularized incomplete
// beta function; quantiles invert the CDF by bisection. Accuracy is far
// better than what confidence-interval work needs (~1e-10).

// lnGamma returns the natural log of the Gamma function (Lanczos
// approximation, g=7, n=9 coefficients).
func lnGamma(x float64) float64 {
	if x < 0.5 {
		// Reflection formula.
		return math.Log(math.Pi/math.Sin(math.Pi*x)) - lnGamma(1-x)
	}
	x--
	coeffs := [...]float64{
		0.99999999999980993,
		676.5203681218851,
		-1259.1392167224028,
		771.32342877765313,
		-176.61502916214059,
		12.507343278686905,
		-0.13857109526572012,
		9.9843695780195716e-6,
		1.5056327351493116e-7,
	}
	a := coeffs[0]
	t := x + 7.5
	for i := 1; i < len(coeffs); i++ {
		a += coeffs[i] / (x + float64(i))
	}
	return 0.5*math.Log(2*math.Pi) + (x+0.5)*math.Log(t) - t + math.Log(a)
}

// betaContinuedFraction evaluates the continued fraction for the incomplete
// beta function (Lentz's method, as in Numerical Recipes).
func betaContinuedFraction(a, b, x float64) float64 {
	const (
		maxIter = 300
		eps     = 3e-14
		fpmin   = 1e-300
	)
	qab := a + b
	qap := a + 1
	qam := a - 1
	c := 1.0
	d := 1 - qab*x/qap
	if math.Abs(d) < fpmin {
		d = fpmin
	}
	d = 1 / d
	h := d
	for m := 1; m <= maxIter; m++ {
		fm := float64(m)
		m2 := 2 * fm
		aa := fm * (b - fm) * x / ((qam + m2) * (a + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		h *= d * c
		aa = -(a + fm) * (qab + fm) * x / ((a + m2) * (qap + m2))
		d = 1 + aa*d
		if math.Abs(d) < fpmin {
			d = fpmin
		}
		c = 1 + aa/c
		if math.Abs(c) < fpmin {
			c = fpmin
		}
		d = 1 / d
		del := d * c
		h *= del
		if math.Abs(del-1) < eps {
			break
		}
	}
	return h
}

// RegularizedIncompleteBeta returns I_x(a, b) for 0 <= x <= 1.
func RegularizedIncompleteBeta(a, b, x float64) float64 {
	switch {
	case x <= 0:
		return 0
	case x >= 1:
		return 1
	}
	lnBeta := lnGamma(a+b) - lnGamma(a) - lnGamma(b)
	front := math.Exp(lnBeta + a*math.Log(x) + b*math.Log(1-x))
	if x < (a+1)/(a+b+2) {
		return front * betaContinuedFraction(a, b, x) / a
	}
	return 1 - front*betaContinuedFraction(b, a, 1-x)/b
}

// TCDF returns P(T <= t) for a Student-t variable with df degrees of
// freedom. df must be positive.
func TCDF(t, df float64) float64 {
	if df <= 0 {
		return math.NaN()
	}
	if t == 0 {
		return 0.5
	}
	x := df / (df + t*t)
	p := 0.5 * RegularizedIncompleteBeta(df/2, 0.5, x)
	if t > 0 {
		return 1 - p
	}
	return p
}

// TQuantile returns the value t such that P(T <= t) = p for a Student-t
// variable with df degrees of freedom, computed by bisection on TCDF.
// p must be in (0, 1).
func TQuantile(p, df float64) float64 {
	if df <= 0 || p <= 0 || p >= 1 {
		return math.NaN()
	}
	if p == 0.5 {
		return 0
	}
	// Bracket the root; t quantiles for p in (1e-12, 1-1e-12) fit well
	// within +/- 1e8 even for df slightly above 0.
	lo, hi := -1e8, 1e8
	for i := 0; i < 200; i++ {
		mid := (lo + hi) / 2
		if TCDF(mid, df) < p {
			lo = mid
		} else {
			hi = mid
		}
		if hi-lo < 1e-12*(1+math.Abs(lo)) {
			break
		}
	}
	return (lo + hi) / 2
}
