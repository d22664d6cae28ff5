package design

import (
	"fmt"
	"math/bits"
	"sort"
	"strings"
)

// Effect identifies a main effect or interaction in a 2^k design as a bit
// mask over factor indices: bit f set means factor f participates. The zero
// mask is the identity column I (the mean).
type Effect uint32

// I is the identity effect (the mean response).
const I Effect = 0

// Order returns the interaction order: 0 for I, 1 for main effects, 2 for
// two-factor interactions, and so on.
func (e Effect) Order() int { return bits.OnesCount32(uint32(e)) }

// Mul multiplies two effects with the mod-2 algebra the paper uses for
// confounding analysis (A*A = I, so multiplication is XOR of masks).
func (e Effect) Mul(o Effect) Effect { return e ^ o }

// Contains reports whether factor index f participates in the effect.
func (e Effect) Contains(f int) bool { return e&(1<<uint(f)) != 0 }

// MainEffect returns the effect for the single factor index f.
func MainEffect(f int) Effect { return Effect(1) << uint(f) }

// EffectName renders an effect using the conventional factor letters
// A, B, C, ... (factor index 0 is A). The identity renders as "I".
func (e Effect) String() string {
	if e == I {
		return "I"
	}
	var b strings.Builder
	for f := 0; f < 32; f++ {
		if e.Contains(f) {
			b.WriteByte(byte('A' + f))
		}
	}
	return b.String()
}

// NameWith renders the effect using the supplied factor names joined by "*"
// (e.g. "memory*cache"), falling back to String when names run short.
func (e Effect) NameWith(factors []Factor) string {
	if e == I {
		return "I"
	}
	var parts []string
	for f := 0; f < 32; f++ {
		if !e.Contains(f) {
			continue
		}
		if f < len(factors) {
			parts = append(parts, factors[f].Name)
		} else {
			parts = append(parts, string(byte('A'+f)))
		}
	}
	return strings.Join(parts, "*")
}

// ParseEffect parses a letter string such as "ABC" (or "I") into an Effect.
func ParseEffect(s string) (Effect, error) {
	s = strings.TrimSpace(strings.ToUpper(s))
	if s == "" {
		return 0, fmt.Errorf("design: empty effect")
	}
	if s == "I" {
		return I, nil
	}
	var e Effect
	for i := 0; i < len(s); i++ {
		c := s[i]
		if c < 'A' || c > 'Z' {
			return 0, fmt.Errorf("design: invalid effect letter %q in %q", string(c), s)
		}
		bit := MainEffect(int(c - 'A'))
		if e&bit != 0 {
			return 0, fmt.Errorf("design: repeated factor %q in effect %q", string(c), s)
		}
		e |= bit
	}
	return e, nil
}

// SignTable is the +1/-1 matrix of a two-level design: one row per run, one
// column per effect. It is the computational core of the sign-table method
// of calculating effects (paper slides 78-80).
type SignTable struct {
	Factors []Factor
	K       int      // number of factors
	Runs    int      // number of rows (2^k full, 2^(k-p) fractional)
	rows    []uint32 // per run: bit f set means factor f is at its high (+1) level
}

// NewSignTable builds the canonical full 2^k sign table for k factors
// (k <= 20), rows ordered with the LAST factor alternating fastest — the
// same order TwoLevelFull produces.
func NewSignTable(factors []Factor) (*SignTable, error) {
	if err := validateFactors(factors); err != nil {
		return nil, err
	}
	k := len(factors)
	if k > 20 {
		return nil, fmt.Errorf("design: sign table limited to 20 factors, got %d", k)
	}
	for _, f := range factors {
		if !f.TwoLevel() {
			return nil, fmt.Errorf("design: sign table requires two-level factors; %q has %d", f.Name, len(f.Levels))
		}
	}
	st := &SignTable{Factors: factors, K: k, Runs: 1 << uint(k)}
	st.rows = make([]uint32, st.Runs)
	for r := 0; r < st.Runs; r++ {
		// Row r in "last factor fastest" order: bit (k-1-j) of r gives
		// the level of factor j... Counting in binary with the last
		// factor as the least significant digit means factor f's level
		// in run r is bit (k-1-f) of r.
		var m uint32
		for f := 0; f < k; f++ {
			if r>>(uint(k-1-f))&1 == 1 {
				m |= 1 << uint(f)
			}
		}
		st.rows[r] = m
	}
	return st, nil
}

// signTableFromRows builds a sign table from explicit high-level masks
// (used by fractional designs).
func signTableFromRows(factors []Factor, rows []uint32) *SignTable {
	return &SignTable{Factors: factors, K: len(factors), Runs: len(rows), rows: rows}
}

// Sign returns the +1/-1 entry for effect e in run r: the product of the
// coded levels of the participating factors.
func (st *SignTable) Sign(r int, e Effect) float64 {
	// Factor f contributes +1 when at its high level. The product over
	// participating factors is -1 iff an odd number of them are low.
	high := st.rows[r] & uint32(e)
	lowCount := e.Order() - bits.OnesCount32(high)
	if lowCount%2 == 1 {
		return -1
	}
	return 1
}

// LevelIndex returns the level index (0 or 1) of factor f in run r.
func (st *SignTable) LevelIndex(r, f int) int {
	if st.rows[r]&(1<<uint(f)) != 0 {
		return 1
	}
	return 0
}

// Dot returns the dot product of the effect column with y.
func (st *SignTable) Dot(e Effect, y []float64) (float64, error) {
	if len(y) != st.Runs {
		return 0, fmt.Errorf("design: %d responses for %d runs", len(y), st.Runs)
	}
	var s float64
	for r, v := range y {
		s += st.Sign(r, e) * v
	}
	return s, nil
}

// ZeroSum reports whether the column for e sums to zero — the paper's check
// that "both levels get equally tested". The identity column never does.
func (st *SignTable) ZeroSum(e Effect) bool {
	if e == I {
		return false
	}
	var s float64
	for r := 0; r < st.Runs; r++ {
		s += st.Sign(r, e)
	}
	return s == 0
}

// Orthogonal reports whether the columns of e1 and e2 are orthogonal (dot
// product zero): "any two of these factors agree as often as they disagree".
func (st *SignTable) Orthogonal(e1, e2 Effect) bool {
	var s float64
	for r := 0; r < st.Runs; r++ {
		s += st.Sign(r, e1) * st.Sign(r, e2)
	}
	return s == 0
}

// AllEffects enumerates every effect of a full 2^k table: I, all main
// effects, and all interactions, ordered by interaction order then by mask.
func (st *SignTable) AllEffects() []Effect {
	out := make([]Effect, 0, 1<<uint(st.K))
	for m := 0; m < 1<<uint(st.K); m++ {
		out = append(out, Effect(m))
	}
	sort.Slice(out, func(i, j int) bool {
		oi, oj := out[i].Order(), out[j].Order()
		if oi != oj {
			return oi < oj
		}
		return out[i] < out[j]
	})
	return out
}

// Design converts the sign table into a runnable Design.
func (st *SignTable) Design() *Design {
	d := &Design{Kind: KindTwoLevel, Factors: st.Factors, Replicates: 1}
	if st.Runs < 1<<uint(st.K) {
		d.Kind = KindFractional
	}
	for r := 0; r < st.Runs; r++ {
		row := make([]int, st.K)
		for f := 0; f < st.K; f++ {
			row[f] = st.LevelIndex(r, f)
		}
		d.Rows = append(d.Rows, row)
	}
	return d
}

// String renders the sign table with I, main effects, and (for small k) all
// interaction columns, in the paper's layout.
func (st *SignTable) String() string {
	effects := []Effect{I}
	for f := 0; f < st.K; f++ {
		effects = append(effects, MainEffect(f))
	}
	if st.K <= 4 && st.Runs == 1<<uint(st.K) {
		for _, e := range st.AllEffects() {
			if e.Order() >= 2 {
				effects = append(effects, e)
			}
		}
	}
	var b strings.Builder
	b.WriteString("run")
	for _, e := range effects {
		fmt.Fprintf(&b, "\t%s", e)
	}
	b.WriteByte('\n')
	for r := 0; r < st.Runs; r++ {
		fmt.Fprintf(&b, "%d", r+1)
		for _, e := range effects {
			fmt.Fprintf(&b, "\t%+g", st.Sign(r, e))
		}
		b.WriteByte('\n')
	}
	return b.String()
}
