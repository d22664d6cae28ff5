package design

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

func letterFactors(k int) []Factor {
	var out []Factor
	for i := 0; i < k; i++ {
		out = append(out, MustFactor(string(rune('A'+i)), "-", "+"))
	}
	return out
}

func TestParseGenerator(t *testing.T) {
	g, err := ParseGenerator("D=ABC")
	if err != nil {
		t.Fatal(err)
	}
	if g.Target != 3 || g.Word != MainEffect(0)|MainEffect(1)|MainEffect(2) {
		t.Errorf("generator = %+v", g)
	}
	if g.String() != "D=ABC" {
		t.Errorf("String = %q", g.String())
	}
	for _, bad := range []string{"", "D", "DE=ABC", "D=", "D=A1"} {
		if _, err := ParseGenerator(bad); err == nil {
			t.Errorf("ParseGenerator(%q) should error", bad)
		}
	}
}

// TestFractional74 pins the paper's 2^(7-4) construction (slides 102-103):
// 8 runs, 7 zero-sum columns, orthogonal factor columns, extra factors
// D=AB, E=AC, F=BC, G=ABC.
func TestFractional74(t *testing.T) {
	factors := letterFactors(7)
	gens := []Generator{}
	for _, s := range []string{"D=AB", "E=AC", "F=BC", "G=ABC"} {
		g, err := ParseGenerator(s)
		if err != nil {
			t.Fatal(err)
		}
		gens = append(gens, g)
	}
	fr, err := NewFractional(factors, gens)
	if err != nil {
		t.Fatal(err)
	}
	st := fr.Table
	if st.Runs != 8 {
		t.Fatalf("runs = %d, want 8", st.Runs)
	}
	// "7 zero-sum columns: so that both levels get equally tested."
	for f := 0; f < 7; f++ {
		if !st.ZeroSum(MainEffect(f)) {
			t.Errorf("factor %s column not zero-sum", MainEffect(f))
		}
	}
	// "3 orthogonal factor columns (A, B and C)" — in fact all 7 main
	// columns are pairwise orthogonal in this construction.
	for i := 0; i < 7; i++ {
		for j := i + 1; j < 7; j++ {
			if !st.Orthogonal(MainEffect(i), MainEffect(j)) {
				t.Errorf("columns %s,%s not orthogonal", MainEffect(i), MainEffect(j))
			}
		}
	}
	// Derived columns equal their generating interactions in every run.
	for r := 0; r < 8; r++ {
		for _, g := range gens {
			if st.Sign(r, MainEffect(g.Target)) != st.Sign(r, g.Word) {
				t.Errorf("run %d: %s != %s", r, MainEffect(g.Target), g.Word)
			}
		}
	}
	d := fr.Table.Design()
	if d.Kind != KindFractional {
		t.Errorf("design kind = %v", d.Kind)
	}
}

// TestConfoundingDABC pins the alias structure of D=ABC for 2^(4-1)
// (paper slides 104-106): AD=BC, BD=AC, AB=CD, A=BCD, B=ACD, C=ABD,
// I=ABCD.
func TestConfoundingDABC(t *testing.T) {
	factors := letterFactors(4)
	g, _ := ParseGenerator("D=ABC")
	fr, err := NewFractional(factors, []Generator{g})
	if err != nil {
		t.Fatal(err)
	}
	rel := fr.DefiningRelation()
	if len(rel) != 2 {
		t.Fatalf("defining relation size = %d, want 2", len(rel))
	}
	abcd, _ := ParseEffect("ABCD")
	if rel[1] != abcd {
		t.Errorf("defining word = %s, want ABCD", rel[1])
	}
	check := func(e1s, e2s string) {
		t.Helper()
		e1, _ := ParseEffect(e1s)
		e2, _ := ParseEffect(e2s)
		as := fr.Aliases(e1)
		if len(as) != 1 || as[0] != e2 {
			t.Errorf("alias(%s) = %v, want [%s]", e1s, as, e2s)
		}
	}
	check("AD", "BC")
	check("BD", "AC")
	check("AB", "CD")
	check("A", "BCD")
	check("B", "ACD")
	check("C", "ABD")
	check("D", "ABC")
	check("I", "ABCD")
	if fr.Resolution() != 4 {
		t.Errorf("resolution = %d, want 4 (IV)", fr.Resolution())
	}
	table := fr.ConfoundingTable()
	for _, want := range []string{"I = ABCD", "A = BCD", "D = ABC"} {
		if !strings.Contains(table, want) {
			t.Errorf("confounding table missing %q:\n%s", want, table)
		}
	}
}

// TestCompareDesigns pins the paper's conclusion (slides 107-109):
// D=ABC (resolution IV) is preferred over D=AB (resolution III).
func TestCompareDesigns(t *testing.T) {
	factors := letterFactors(4)
	gABC, _ := ParseGenerator("D=ABC")
	gAB, _ := ParseGenerator("D=AB")
	frABC, err := NewFractional(factors, []Generator{gABC})
	if err != nil {
		t.Fatal(err)
	}
	frAB, err := NewFractional(factors, []Generator{gAB})
	if err != nil {
		t.Fatal(err)
	}
	if frAB.Resolution() != 3 {
		t.Errorf("D=AB resolution = %d, want 3", frAB.Resolution())
	}
	// D=AB confounds main effects with two-factor interactions:
	// A = BD, B = AD, D = AB (slide 108).
	a, _ := ParseEffect("A")
	bd, _ := ParseEffect("BD")
	as := frAB.Aliases(a)
	if len(as) != 1 || as[0] != bd {
		t.Errorf("D=AB: alias(A) = %v, want [BD]", as)
	}
	pref, reason := Compare(frABC, frAB)
	if pref != frABC {
		t.Error("D=ABC should be preferred")
	}
	if !strings.Contains(reason, "sparsity of effects") {
		t.Errorf("reason = %q", reason)
	}
	// Order-independence.
	pref2, _ := Compare(frAB, frABC)
	if pref2 != frABC {
		t.Error("comparison should not depend on argument order")
	}
}

func TestFractionalValidation(t *testing.T) {
	factors := letterFactors(4)
	mk := func(s string) Generator {
		g, err := ParseGenerator(s)
		if err != nil {
			t.Fatal(err)
		}
		return g
	}
	cases := []struct {
		name string
		gens []Generator
	}{
		{"no generators", nil},
		{"too many generators", []Generator{mk("B=A"), mk("C=A"), mk("D=A"), {Target: 4, Word: MainEffect(0)}}},
		{"targets base factor", []Generator{mk("A=BC")}},
		{"duplicate target", []Generator{mk("D=AB"), mk("D=AC")}},
		{"word uses non-base", []Generator{mk("D=AE")}},
	}
	for _, c := range cases {
		if _, err := NewFractional(factors, c.gens); err == nil {
			t.Errorf("%s: expected error", c.name)
		}
	}
	// Missing generator for an extra factor: 5 factors, 1 generator
	// covering only E leaves D uncovered... with k=5, p=1, base=ABCD,
	// target must be E. Use k=6, p=2 with both generators targeting F.
	factors6 := letterFactors(6)
	if _, err := NewFractional(factors6, []Generator{mk("F=AB"), mk("F=CD")}); err == nil {
		t.Error("uncovered extra factor should error")
	}
	three := []Factor{MustFactor("A", "-", "+"), MustFactor("B", "-", "+"), MustFactor("C", "-", "+", "0")}
	if _, err := NewFractional(three, []Generator{mk("C=AB")}); err == nil {
		t.Error("3-level factor should error")
	}
}

func TestFractionalEstimateConfounded(t *testing.T) {
	// Build y from a known model with ONLY main effects; the 2^(4-1)
	// D=ABC estimate of A actually estimates A+BCD = A (BCD is zero).
	factors := letterFactors(4)
	g, _ := ParseGenerator("D=ABC")
	fr, _ := NewFractional(factors, []Generator{g})
	st := fr.Table
	truth := map[Effect]float64{I: 100, MainEffect(0): 7, MainEffect(1): -3, MainEffect(2): 2, MainEffect(3): 5}
	y := make([]float64, st.Runs)
	for r := range y {
		for e, q := range truth {
			y[r] += q * st.Sign(r, e)
		}
	}
	est, err := fr.Estimate(y)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, est[I], 100, 1e-9, "confounded I")
	approx(t, est[MainEffect(0)], 7, 1e-9, "confounded A")
	approx(t, est[MainEffect(1)], -3, 1e-9, "confounded B")
	approx(t, est[MainEffect(2)], 2, 1e-9, "confounded C")
	approx(t, est[MainEffect(3)], 5, 1e-9, "confounded D")
	if _, err := fr.Estimate([]float64{1}); err == nil {
		t.Error("short y should error")
	}
	y[5] = math.NaN()
	if _, err := fr.Estimate(y); err == nil || !strings.Contains(err.Error(), "run 6") {
		t.Errorf("NaN response: err = %v, want it refused naming run 6", err)
	}
}

func TestEstimateOnFullTableViaEffects(t *testing.T) {
	// EstimateEffects must reject fractional tables.
	factors := letterFactors(4)
	g, _ := ParseGenerator("D=ABC")
	fr, _ := NewFractional(factors, []Generator{g})
	if _, err := EstimateEffects(fr.Table, make([]float64, 8)); err == nil {
		t.Error("EstimateEffects on fractional table should error")
	}
}

// Property: for any k in [3,6] and p=1 with generator LAST=all-base, the
// fraction has 2^(k-1) runs, all main columns zero-sum, and resolution k.
func TestFractionalPropertiesQuick(t *testing.T) {
	f := func(kRaw uint8) bool {
		k := 3 + int(kRaw%4)
		factors := letterFactors(k)
		var word Effect
		for i := 0; i < k-1; i++ {
			word |= MainEffect(i)
		}
		fr, err := NewFractional(factors, []Generator{{Target: k - 1, Word: word}})
		if err != nil {
			return false
		}
		if fr.Table.Runs != 1<<uint(k-1) {
			return false
		}
		for i := 0; i < k; i++ {
			if !fr.Table.ZeroSum(MainEffect(i)) {
				return false
			}
		}
		return fr.Resolution() == k
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}
