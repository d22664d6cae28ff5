package design

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
)

// paper22 builds the paper's 2^2 worked example (slides 70-72): memory size
// {4MB,16MB} x cache size {1KB,2KB}, responses in MIPS:
//
//	          mem=4MB  mem=16MB
//	cache=1KB    15       45
//	cache=2KB    25       75
func paper22() (*SignTable, []float64) {
	factors := []Factor{
		MustFactor("memory", "4MB", "16MB"), // A
		MustFactor("cache", "1KB", "2KB"),   // B
	}
	st, err := NewSignTable(factors)
	if err != nil {
		panic(err)
	}
	// Run order: (A-,B-), (A-,B+), (A+,B-), (A+,B+).
	y := []float64{15, 25, 45, 75}
	return st, y
}

// TestPaper22Effects pins the headline result of the paper's 2^2 example:
// y = 40 + 20*xA + 10*xB + 5*xA*xB.
func TestPaper22Effects(t *testing.T) {
	st, y := paper22()
	ef, err := EstimateEffects(st, y)
	if err != nil {
		t.Fatal(err)
	}
	a, b := MainEffect(0), MainEffect(1)
	approx(t, ef.Q[I], 40, 1e-12, "q0 (mean)")
	approx(t, ef.Q[a], 20, 1e-12, "qA (memory effect)")
	approx(t, ef.Q[b], 10, 1e-12, "qB (cache effect)")
	approx(t, ef.Q[a.Mul(b)], 5, 1e-12, "qAB (interaction)")
	if ef.YMean != 40 {
		t.Errorf("mean = %g", ef.YMean)
	}
	model := ef.ModelString()
	for _, frag := range []string{"40", "20*xA", "10*xB", "5*xA*xB"} {
		if !strings.Contains(model, frag) {
			t.Errorf("model %q missing %q", model, frag)
		}
	}
}

func TestPaper22Predict(t *testing.T) {
	st, y := paper22()
	ef, _ := EstimateEffects(st, y)
	// The model must reproduce all four observations exactly.
	cases := []struct {
		coded []float64
		want  float64
	}{
		{[]float64{-1, -1}, 15},
		{[]float64{-1, 1}, 25},
		{[]float64{1, -1}, 45},
		{[]float64{1, 1}, 75},
	}
	for _, c := range cases {
		got, err := ef.Predict(c.coded)
		if err != nil {
			t.Fatal(err)
		}
		approx(t, got, c.want, 1e-9, "predict")
	}
	if _, err := ef.Predict([]float64{1}); err == nil {
		t.Error("wrong arity should error")
	}
}

// TestPaperAllocationOfVariation pins the paper's interconnection-network
// example (slides 86-93): factors network {Crossbar,Omega} and pattern
// {Random,Matrix}, three response variables T, N, R with published
// "variation explained" percentages.
func TestPaperAllocationOfVariation(t *testing.T) {
	factors := []Factor{
		MustFactor("network", "Crossbar", "Omega"), // A
		MustFactor("pattern", "Random", "Matrix"),  // B
	}
	st, err := NewSignTable(factors)
	if err != nil {
		t.Fatal(err)
	}
	// The paper's printed data rows, used verbatim in print order. (Note:
	// taken together with the slide's own A/B row labels the printed
	// percentages would have A and B swapped; the assignment below is the
	// one consistent with both the published percentages AND the
	// conclusion "the address pattern influences most".)
	responses := map[string][]float64{
		"T": {0.6041, 0.4220, 0.7922, 0.4717},
		"N": {3, 5, 2, 4},
		"R": {1.655, 2.378, 1.262, 2.190},
	}
	want := map[string][3]float64{ // qA, qB, qAB percentages
		"T": {17.2, 77.0, 5.8},
		"N": {20, 80, 0},
		"R": {10.9, 87.8, 1.3},
	}
	a, b := MainEffect(0), MainEffect(1)
	for metric, y := range responses {
		ef, err := EstimateEffects(st, y)
		if err != nil {
			t.Fatal(err)
		}
		frac := map[Effect]float64{}
		for _, v := range ef.AllocateVariation() {
			frac[v.Effect] = v.Fraction * 100
		}
		w := want[metric]
		approx(t, frac[a], w[0], 0.1, metric+" qA%")
		approx(t, frac[b], w[1], 0.1, metric+" qB%")
		approx(t, frac[a.Mul(b)], w[2], 0.1, metric+" qAB%")
		// Paper conclusion: the address pattern (B) influences most.
		imp := ef.ImportantEffects(0.05)
		if len(imp) == 0 || imp[0] != b {
			t.Errorf("%s: most important effect = %v, want B (pattern)", metric, imp)
		}
	}
}

func TestAllocationSumsToOne(t *testing.T) {
	st, y := paper22()
	ef, _ := EstimateEffects(st, y)
	var total float64
	for _, v := range ef.AllocateVariation() {
		total += v.Fraction
	}
	approx(t, total, 1, 1e-9, "fractions sum")
	table := ef.VariationTable()
	if !strings.Contains(table, "qA") || !strings.Contains(table, "%") {
		t.Errorf("variation table = %q", table)
	}
}

func TestAllocationConstantResponse(t *testing.T) {
	st, _ := paper22()
	ef, err := EstimateEffects(st, []float64{7, 7, 7, 7})
	if err != nil {
		t.Fatal(err)
	}
	for _, v := range ef.AllocateVariation() {
		if v.Fraction != 0 {
			t.Errorf("constant response: fraction %g for %s", v.Fraction, v.Effect)
		}
	}
}

func TestEstimateEffectsErrors(t *testing.T) {
	st, _ := paper22()
	if _, err := EstimateEffects(st, []float64{1, 2}); err == nil {
		t.Error("short y should error")
	}
	if _, err := EstimateEffectsReplicated(st, [][]float64{{1}, {2}}); err == nil {
		t.Error("short reps should error")
	}
	if _, err := EstimateEffectsReplicated(st, [][]float64{{1}, {2}, {}, {4}}); err == nil {
		t.Error("empty replicate group should error")
	}
	// A non-finite response is refused, naming its run (numbered from 1,
	// as the sign table prints it), instead of turning every effect NaN.
	for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
		_, err := EstimateEffects(st, []float64{1, 2, 3, v})
		if err == nil || !strings.Contains(err.Error(), "run 4") {
			t.Errorf("response %v: err = %v, want it refused naming run 4", v, err)
		}
		if _, err := EstimateEffectsReplicated(st, [][]float64{{1}, {2, v}, {3}, {4}}); err == nil || !strings.Contains(err.Error(), "run 2") {
			t.Errorf("replicate %v: err = %v, want it refused naming run 2", v, err)
		}
	}
}

func TestEstimateEffectsReplicated(t *testing.T) {
	st, y := paper22()
	reps := make([][]float64, 4)
	for r := range reps {
		// Symmetric noise around the true value averages out exactly.
		reps[r] = []float64{y[r] - 1, y[r] + 1, y[r]}
	}
	ef, err := EstimateEffectsReplicated(st, reps)
	if err != nil {
		t.Fatal(err)
	}
	approx(t, ef.Q[I], 40, 1e-9, "replicated q0")
	approx(t, ef.Q[MainEffect(0)], 20, 1e-9, "replicated qA")
}

// Property: effect estimation inverts prediction — for any small integer
// coefficients, generating y from the model and re-estimating recovers them.
func TestEffectsRoundTripQuick(t *testing.T) {
	st, _ := paper22()
	f := func(q0, qa, qb, qab int8) bool {
		y := make([]float64, 4)
		a, b := MainEffect(0), MainEffect(1)
		for r := 0; r < 4; r++ {
			y[r] = float64(q0) + float64(qa)*st.Sign(r, a) +
				float64(qb)*st.Sign(r, b) + float64(qab)*st.Sign(r, a.Mul(b))
		}
		ef, err := EstimateEffects(st, y)
		if err != nil {
			return false
		}
		return ef.Q[I] == float64(q0) && ef.Q[a] == float64(qa) &&
			ef.Q[b] == float64(qb) && ef.Q[a.Mul(b)] == float64(qab)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestInteractionExample pins the paper's slide-58 tables: (a) shows no
// interaction, (b) shows interaction.
func TestInteractionExample(t *testing.T) {
	a := MustFactor("A", "A1", "A2")
	b := MustFactor("B", "B1", "B2")
	noInter := TwoByTwo{A: a, B: b, Y: [2][2]float64{{3, 5}, {6, 8}}}
	inter := TwoByTwo{A: a, B: b, Y: [2][2]float64{{3, 5}, {6, 9}}}

	if noInter.Interacts(1e-9) {
		t.Error("table (a) should show no interaction")
	}
	if !inter.Interacts(1e-9) {
		t.Error("table (b) should show interaction")
	}
	approx(t, noInter.EffectOfAAt(0), 2, 0, "effect of A at B1")
	approx(t, noInter.EffectOfAAt(1), 2, 0, "effect of A at B2")
	approx(t, inter.EffectOfAAt(1), 3, 0, "effect of A at B2 (b)")
	approx(t, inter.InteractionMagnitude(), 1, 0, "interaction magnitude")

	// Effects view: qAB must be 0 for (a), nonzero for (b).
	efA, err := noInter.Effects()
	if err != nil {
		t.Fatal(err)
	}
	approx(t, efA.Q[MainEffect(0).Mul(MainEffect(1))], 0, 1e-12, "qAB (a)")
	efB, err := inter.Effects()
	if err != nil {
		t.Fatal(err)
	}
	if efB.Q[MainEffect(0).Mul(MainEffect(1))] == 0 {
		t.Error("qAB should be nonzero for (b)")
	}
	if inter.String() == "" {
		t.Error("empty table rendering")
	}
}

func TestTwoStageScreen(t *testing.T) {
	st, y := paper22()
	ef, _ := EstimateEffects(st, y)
	ts := TwoStage{Threshold: 0.05}
	ranks := ts.Screen(ef)
	if len(ranks) != 2 {
		t.Fatalf("ranks = %v", ranks)
	}
	// Memory (A) explains 2100*?: qA=20 -> SS=1600/2100=76%, cache qB=10
	// -> 400/2100=19%, interaction 100/2100=4.7%.
	if ranks[0].Factor.Name != "memory" {
		t.Errorf("top factor = %s, want memory", ranks[0].Factor.Name)
	}
	approx(t, ranks[0].MainOnly, 1600.0/2100, 1e-9, "memory main fraction")
	approx(t, ranks[0].Total, (1600.0+100)/2100, 1e-9, "memory total fraction")

	imp := ts.ImportantFactors(ef)
	if len(imp) != 2 {
		t.Errorf("important factors = %v", imp)
	}

	plan, err := ts.RefinePlan(ef, map[string][]string{
		"memory": {"4MB", "8MB", "16MB", "32MB"},
	})
	if err != nil {
		t.Fatal(err)
	}
	if plan.NumRuns() != 4*2 {
		t.Errorf("refined runs = %d, want 8", plan.NumRuns())
	}
}

func TestTwoStageNoImportant(t *testing.T) {
	st, _ := paper22()
	ef, _ := EstimateEffects(st, []float64{5, 5, 5, 5})
	ts := TwoStage{Threshold: 0.05}
	if _, err := ts.RefinePlan(ef, nil); err == nil {
		t.Error("constant response should yield no important factors")
	}
}
