package design

import (
	"fmt"
	"sort"
	"strings"
)

// Generator assigns one extra factor of a fractional design to an
// interaction column of the base factors, e.g. D = ABC. Target is the
// factor index being assigned; Word is the interaction of base factors it
// aliases (as an Effect mask over factor indices).
type Generator struct {
	Target int
	Word   Effect
}

// String renders the generator in the paper's "D=ABC" notation.
func (g Generator) String() string {
	return fmt.Sprintf("%s=%s", MainEffect(g.Target), g.Word)
}

// ParseGenerator parses "D=ABC" style notation.
func ParseGenerator(s string) (Generator, error) {
	parts := strings.SplitN(s, "=", 2)
	if len(parts) != 2 {
		return Generator{}, fmt.Errorf("design: generator %q must have the form D=ABC", s)
	}
	lhs, err := ParseEffect(parts[0])
	if err != nil {
		return Generator{}, fmt.Errorf("design: generator %q: %w", s, err)
	}
	if lhs.Order() != 1 {
		return Generator{}, fmt.Errorf("design: generator %q left side must be a single factor", s)
	}
	rhs, err := ParseEffect(parts[1])
	if err != nil {
		return Generator{}, fmt.Errorf("design: generator %q: %w", s, err)
	}
	if rhs.Order() < 1 {
		return Generator{}, fmt.Errorf("design: generator %q right side must name at least one factor", s)
	}
	target := 0
	for f := 0; f < 32; f++ {
		if lhs.Contains(f) {
			target = f
		}
	}
	return Generator{Target: target, Word: rhs}, nil
}

// Fractional is a 2^(k-p) fractional factorial design: a full factorial on
// the k-p base factors with the remaining p factors assigned to interaction
// columns via generators.
type Fractional struct {
	Factors    []Factor
	Base       []int       // indices of the k-p base factors
	Generators []Generator // one per extra factor
	Table      *SignTable  // 2^(k-p) rows over ALL k factors
}

// NewFractional builds a 2^(k-p) design. The first k-p factors are the base
// (as in the paper's construction: "pick k-p factors, build a full factorial
// design"); each generator must target one of the remaining factors and use
// only base factors in its word, and every extra factor needs exactly one
// generator.
func NewFractional(factors []Factor, generators []Generator) (*Fractional, error) {
	if err := validateFactors(factors); err != nil {
		return nil, err
	}
	k := len(factors)
	p := len(generators)
	if p == 0 {
		return nil, fmt.Errorf("design: fractional design needs at least one generator; use TwoLevelFull for a full design")
	}
	if p >= k {
		return nil, fmt.Errorf("design: %d generators for %d factors leaves no base", p, k)
	}
	for _, f := range factors {
		if !f.TwoLevel() {
			return nil, fmt.Errorf("design: fractional design requires two-level factors; %q has %d", f.Name, len(f.Levels))
		}
	}
	nBase := k - p
	base := make([]int, nBase)
	isBase := make(map[int]bool, nBase)
	for i := 0; i < nBase; i++ {
		base[i] = i
		isBase[i] = true
	}
	covered := make(map[int]bool, p)
	for _, g := range generators {
		if g.Target < 0 || g.Target >= k {
			return nil, fmt.Errorf("design: generator %s targets factor index %d, out of range", g, g.Target)
		}
		if isBase[g.Target] {
			return nil, fmt.Errorf("design: generator %s targets base factor %s", g, MainEffect(g.Target))
		}
		if covered[g.Target] {
			return nil, fmt.Errorf("design: factor %s has two generators", MainEffect(g.Target))
		}
		covered[g.Target] = true
		if g.Word == I {
			return nil, fmt.Errorf("design: generator %s has empty word", g)
		}
		if uint32(g.Word)>>uint(k) != 0 {
			return nil, fmt.Errorf("design: generator %s names a factor beyond the %d declared", g, k)
		}
		for f := 0; f < k; f++ {
			if g.Word.Contains(f) && !isBase[f] {
				return nil, fmt.Errorf("design: generator %s uses non-base factor %s", g, MainEffect(f))
			}
		}
	}
	for f := nBase; f < k; f++ {
		if !covered[f] {
			return nil, fmt.Errorf("design: extra factor %s has no generator", MainEffect(f))
		}
	}

	// Full factorial over the base factors, then derive the extra columns.
	baseFactors := make([]Factor, nBase)
	copy(baseFactors, factors[:nBase])
	baseST, err := NewSignTable(baseFactors)
	if err != nil {
		return nil, err
	}
	rows := make([]uint32, baseST.Runs)
	for r := 0; r < baseST.Runs; r++ {
		var m uint32
		for f := 0; f < nBase; f++ {
			if baseST.LevelIndex(r, f) == 1 {
				m |= 1 << uint(f)
			}
		}
		for _, g := range generators {
			if baseST.Sign(r, g.Word) > 0 {
				m |= 1 << uint(g.Target)
			}
		}
		rows[r] = m
	}
	return &Fractional{
		Factors:    factors,
		Base:       base,
		Generators: append([]Generator(nil), generators...),
		Table:      signTableFromRows(factors, rows),
	}, nil
}

// DefiningRelation returns the defining contrast subgroup: every product of
// the defining words I=<target*word>, including I itself. Its size is 2^p.
func (fr *Fractional) DefiningRelation() []Effect {
	words := make([]Effect, len(fr.Generators))
	for i, g := range fr.Generators {
		words[i] = MainEffect(g.Target).Mul(g.Word)
	}
	seen := map[Effect]bool{I: true}
	group := []Effect{I}
	// Generate the subgroup by closing over products of the p words.
	for mask := 1; mask < 1<<uint(len(words)); mask++ {
		var e Effect
		for i, w := range words {
			if mask>>uint(i)&1 == 1 {
				e = e.Mul(w)
			}
		}
		if !seen[e] {
			seen[e] = true
			group = append(group, e)
		}
	}
	sort.Slice(group, func(i, j int) bool {
		oi, oj := group[i].Order(), group[j].Order()
		if oi != oj {
			return oi < oj
		}
		return group[i] < group[j]
	})
	return group
}

// Resolution returns the design resolution: the smallest order of a
// non-identity word in the defining relation. Designs of higher resolution
// confound main effects only with higher-order interactions and are
// preferred ("sparsity of effects" principle, paper slide 108).
func (fr *Fractional) Resolution() int {
	res := 0
	for _, e := range fr.DefiningRelation() {
		if e == I {
			continue
		}
		if res == 0 || e.Order() < res {
			res = e.Order()
		}
	}
	return res
}

// Aliases returns the alias group of effect e: all effects whose columns are
// identical to e's in this fraction (e multiplied by each defining word).
// The result excludes e itself and is sorted by order.
func (fr *Fractional) Aliases(e Effect) []Effect {
	var out []Effect
	for _, w := range fr.DefiningRelation() {
		if w == I {
			continue
		}
		out = append(out, e.Mul(w))
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

// ConfoundingTable renders the alias structure for the mean and all main
// effects, in the paper's "A = BCD; I = ABCD" style.
func (fr *Fractional) ConfoundingTable() string {
	var b strings.Builder
	render := func(e Effect) {
		names := []string{e.String()}
		for _, a := range fr.Aliases(e) {
			names = append(names, a.String())
		}
		b.WriteString(strings.Join(names, " = "))
		b.WriteByte('\n')
	}
	render(I)
	for f := 0; f < len(fr.Factors); f++ {
		render(MainEffect(f))
	}
	return b.String()
}

// Estimate computes the confounded effect sums from one response per run:
// what the dot product attributes to effect e is really the sum of e and
// all its aliases. Only one effect per alias group is distinct; the map key
// is the lowest-order (ties: lowest-mask) representative, so a main effect
// keys its group when present — matching the sparsity-of-effects reading
// that the estimate "is" the main effect plus hopefully-negligible
// higher-order aliases.
func (fr *Fractional) Estimate(y []float64) (map[Effect]float64, error) {
	st := fr.Table
	if err := checkResponses(st, y); err != nil {
		return nil, err
	}
	out := make(map[Effect]float64)
	seen := make(map[Effect]bool)
	better := func(a, b Effect) bool { // a preferable to b as representative
		if a.Order() != b.Order() {
			return a.Order() < b.Order()
		}
		return a < b
	}
	for m := 0; m < 1<<uint(st.K); m++ {
		e := Effect(m)
		if seen[e] {
			continue
		}
		canon := e
		for _, a := range fr.Aliases(e) {
			seen[a] = true
			if better(a, canon) {
				canon = a
			}
		}
		seen[e] = true
		d, err := st.Dot(e, y)
		if err != nil {
			return nil, err
		}
		out[canon] = d / float64(st.Runs)
	}
	return out, nil
}

// Compare reports which of two fractional designs over the same factors is
// preferable: the one with higher resolution (ties favor the first).
// It returns a human-readable justification quoting the sparsity-of-effects
// principle the paper invokes.
func Compare(a, b *Fractional) (preferred *Fractional, reason string) {
	ra, rb := a.Resolution(), b.Resolution()
	gA := make([]string, len(a.Generators))
	for i, g := range a.Generators {
		gA[i] = g.String()
	}
	gB := make([]string, len(b.Generators))
	for i, g := range b.Generators {
		gB[i] = g.String()
	}
	if rb > ra {
		return b, fmt.Sprintf("%s (resolution %d) is preferred over %s (resolution %d): higher-order interactions are assumed less important than lower-order ones (sparsity of effects), so designs that confound higher-order interactions are preferred",
			strings.Join(gB, ","), rb, strings.Join(gA, ","), ra)
	}
	return a, fmt.Sprintf("%s (resolution %d) is preferred over %s (resolution %d): higher-order interactions are assumed less important than lower-order ones (sparsity of effects), so designs that confound higher-order interactions are preferred",
		strings.Join(gA, ","), ra, strings.Join(gB, ","), rb)
}
