package design

import (
	"fmt"
	"math"
	"sort"
	"strings"
)

// Effects holds the estimated coefficients of the nonlinear regression model
//
//	y = q0 + qA*xA + qB*xB + qAB*xA*xB + ...
//
// computed by the sign-table method: q_e = (column_e . y) / runs.
type Effects struct {
	Table *SignTable
	Q     map[Effect]float64
	Y     []float64
	YMean float64 // equals Q[I]
}

// EstimateEffects computes every effect of a full 2^k table from one
// response per run. For replicated responses, average them per run first
// (or use EstimateEffectsReplicated).
func EstimateEffects(st *SignTable, y []float64) (*Effects, error) {
	if err := checkResponses(st, y); err != nil {
		return nil, err
	}
	if st.Runs != 1<<uint(st.K) {
		return nil, fmt.Errorf("design: effect estimation over a fractional table estimates confounded sums; use Fractional.Estimate")
	}
	ef := &Effects{Table: st, Q: make(map[Effect]float64, st.Runs), Y: append([]float64(nil), y...)}
	for _, e := range st.AllEffects() {
		d, err := st.Dot(e, y)
		if err != nil {
			return nil, err
		}
		ef.Q[e] = d / float64(st.Runs)
	}
	ef.YMean = ef.Q[I]
	return ef, nil
}

// checkResponses refuses a response vector that is not one finite value
// per run of st: a single NaN or infinity would turn every effect and
// every share of variation into NaN. Runs are numbered from 1, as the
// sign table prints them.
func checkResponses(st *SignTable, y []float64) error {
	if len(y) != st.Runs {
		return fmt.Errorf("design: %d responses for %d runs", len(y), st.Runs)
	}
	for r, v := range y {
		if math.IsNaN(v) || math.IsInf(v, 0) {
			return fmt.Errorf("design: run %d has a non-finite response %v", r+1, v)
		}
	}
	return nil
}

// EstimateEffectsReplicated averages the replicate responses per run and
// estimates effects from the means; reps[r] are the replicate observations
// of run r.
func EstimateEffectsReplicated(st *SignTable, reps [][]float64) (*Effects, error) {
	if len(reps) != st.Runs {
		return nil, fmt.Errorf("design: %d replicate groups for %d runs", len(reps), st.Runs)
	}
	y := make([]float64, st.Runs)
	for r, g := range reps {
		if len(g) == 0 {
			return nil, fmt.Errorf("design: run %d has no replicates", r)
		}
		var s float64
		for _, v := range g {
			s += v
		}
		y[r] = s / float64(len(g))
	}
	return EstimateEffects(st, y)
}

// Predict evaluates the fitted model for the run whose factor high/low
// pattern is given by coded values (-1/+1 per factor).
func (ef *Effects) Predict(coded []float64) (float64, error) {
	if len(coded) != ef.Table.K {
		return 0, fmt.Errorf("design: %d coded values for %d factors", len(coded), ef.Table.K)
	}
	var y float64
	for e, q := range ef.Q {
		term := q
		for f := 0; f < ef.Table.K; f++ {
			if e.Contains(f) {
				term *= coded[f]
			}
		}
		y += term
	}
	return y, nil
}

// ModelString renders the fitted model in the paper's notation, e.g.
// "y = 40 + 20*xA + 10*xB + 5*xA*xB", omitting zero terms.
func (ef *Effects) ModelString() string {
	effects := ef.Table.AllEffects()
	var parts []string
	for _, e := range effects {
		q := ef.Q[e]
		if q == 0 && e != I {
			continue
		}
		switch {
		case e == I:
			parts = append(parts, fmt.Sprintf("%g", q))
		default:
			var vars []string
			for f := 0; f < ef.Table.K; f++ {
				if e.Contains(f) {
					vars = append(vars, "x"+string(byte('A'+f)))
				}
			}
			parts = append(parts, fmt.Sprintf("%g*%s", q, strings.Join(vars, "*")))
		}
	}
	return "y = " + strings.Join(parts, " + ")
}

// Variation is the allocation-of-variation result for one effect.
type Variation struct {
	Effect   Effect
	SS       float64 // sum of squares attributed: runs * q^2
	Fraction float64 // SS / SST, the "importance" of the effect
}

// AllocateVariation distributes the total variation SST = sum (yi - mean)^2
// among all non-identity effects: SS_e = 2^k * q_e^2 (paper slides 81-85).
// Results are sorted by descending fraction. When SST is zero (constant
// response) all fractions are zero.
func (ef *Effects) AllocateVariation() []Variation {
	var sst float64
	for _, y := range ef.Y {
		d := y - ef.YMean
		sst += d * d
	}
	var out []Variation
	for _, e := range ef.Table.AllEffects() {
		if e == I {
			continue
		}
		q := ef.Q[e]
		ss := float64(ef.Table.Runs) * q * q
		v := Variation{Effect: e, SS: ss}
		if sst > 0 {
			v.Fraction = ss / sst
		}
		out = append(out, v)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].Fraction != out[j].Fraction {
			return out[i].Fraction > out[j].Fraction
		}
		return out[i].Effect < out[j].Effect
	})
	return out
}

// VariationTable renders the allocation as the paper's "variation explained
// (%)" table.
func (ef *Effects) VariationTable() string {
	var b strings.Builder
	b.WriteString("effect\tvariation explained (%)\n")
	for _, v := range ef.AllocateVariation() {
		fmt.Fprintf(&b, "q%s\t%.1f\n", v.Effect, v.Fraction*100)
	}
	return b.String()
}

// ImportantEffects returns the effects whose variation fraction is at least
// threshold (e.g. 0.05), in descending order — step 2 of the paper's
// recommended two-stage methodology.
func (ef *Effects) ImportantEffects(threshold float64) []Effect {
	var out []Effect
	for _, v := range ef.AllocateVariation() {
		if v.Fraction >= threshold {
			out = append(out, v.Effect)
		}
	}
	return out
}
