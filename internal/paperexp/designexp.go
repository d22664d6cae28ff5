package paperexp

import (
	"context"
	"fmt"
	"slices"
	"strings"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/netsim"
)

// RunT3 regenerates slide 58: two 2x2 tables, one without and one with a
// factor interaction.
func RunT3(ctx context.Context) (*Result, error) {
	a := design.MustFactor("A", "A1", "A2")
	b := design.MustFactor("B", "B1", "B2")
	noInter := design.TwoByTwo{A: a, B: b, Y: [2][2]float64{{3, 5}, {6, 8}}}
	inter := design.TwoByTwo{A: a, B: b, Y: [2][2]float64{{3, 5}, {6, 9}}}

	var sb strings.Builder
	sb.WriteString("(a) no interaction: the effect of A is the same at every level of B\n\n")
	sb.WriteString(noInter.String())
	fmt.Fprintf(&sb, "\neffect of A at B1 = %g, at B2 = %g -> interaction magnitude %g\n\n",
		noInter.EffectOfAAt(0), noInter.EffectOfAAt(1), noInter.InteractionMagnitude())
	sb.WriteString("(b) interaction: the effect of A depends on the level of B\n\n")
	sb.WriteString(inter.String())
	fmt.Fprintf(&sb, "\neffect of A at B1 = %g, at B2 = %g -> interaction magnitude %g\n",
		inter.EffectOfAAt(0), inter.EffectOfAAt(1), inter.InteractionMagnitude())

	return &Result{
		ID: "t3", Title: "Factor interaction", Slides: "58",
		Text: sb.String(),
		Series: map[string][]float64{
			"no-interaction": {noInter.InteractionMagnitude()},
			"interaction":    {inter.InteractionMagnitude()},
		},
	}, nil
}

// RunT4 regenerates slides 70-78: the 2^2 memory/cache MIPS example with
// the sign-table method, producing y = 40 + 20 xA + 10 xB + 5 xA xB.
func RunT4(ctx context.Context) (*Result, error) {
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		return nil, err
	}
	responses := map[string]float64{
		"cache=1KB memory=4MB":  15,
		"cache=2KB memory=4MB":  25,
		"cache=1KB memory=16MB": 45,
		"cache=2KB memory=16MB": 75,
	}
	exp := &harness.Experiment{
		Name: "workstation performance 2^2", Design: d, Responses: []string{"MIPS"},
		Run: func(a design.Assignment, _ int) (map[string]float64, error) {
			v, ok := responses[a.String()]
			if !ok {
				return nil, fmt.Errorf("no datum for %s", a)
			}
			return map[string]float64{"MIPS": v}, nil
		},
	}
	rs, err := harness.Execute(ctx, exp)
	if err != nil {
		return nil, err
	}
	// A shard's result set lacks the rows other shards own, so it has no
	// effects to estimate (its report says so) and none to interpret, only
	// its rows to store.
	series := map[string][]float64{}
	notes := ""
	if !slices.ContainsFunc(rs.Rows, func(r harness.ResultRow) bool { return len(r.Reps) == 0 }) {
		ef, err := rs.Effects("MIPS")
		if err != nil {
			return nil, err
		}
		series["q"] = []float64{ef.Q[design.I], ef.Q[design.MainEffect(0)], ef.Q[design.MainEffect(1)],
			ef.Q[design.MainEffect(0).Mul(design.MainEffect(1))]}
		notes = "Interpreted as: the mean is 40 MIPS; the memory effect is 20; the cache " +
			"effect is 10; their interaction accounts for 5."
	}
	st, err := design.NewSignTable(d.Factors)
	if err != nil {
		return nil, err
	}
	text := "sign table:\n" + st.String() + "\n" + rs.Report()
	return &Result{
		ID: "t4", Title: "2^2 factorial design and the sign-table method", Slides: "70-78",
		Text:   text,
		Series: series,
		Notes:  notes,
	}, nil
}

// RunT5 regenerates slides 86-93: allocation of variation for
// network-type x address-pattern over throughput, transit time, and
// response time — first on the paper's published data (reproducing the
// published percentages), then live on the netsim simulator.
func RunT5(ctx context.Context) (*Result, error) {
	factors := []design.Factor{
		design.MustFactor("network", "Crossbar", "Omega"),
		design.MustFactor("pattern", "Random", "Matrix"),
	}
	st, err := design.NewSignTable(factors)
	if err != nil {
		return nil, err
	}
	a, b := design.MainEffect(0), design.MainEffect(1)

	var sb strings.Builder
	series := map[string][]float64{}

	sb.WriteString("published data (Jain via the paper):\n\n")
	tab := harness.NewTable().Header("metric", "qA(network)%", "qB(pattern)%", "qAB%")
	for _, metric := range []string{"T", "N", "R"} {
		ys := netsim.PaperData()[metric]
		ef, err := design.EstimateEffects(st, ys)
		if err != nil {
			return nil, err
		}
		frac := map[design.Effect]float64{}
		for _, v := range ef.AllocateVariation() {
			frac[v.Effect] = v.Fraction * 100
		}
		series["paper-"+metric] = []float64{frac[a], frac[b], frac[a.Mul(b)]}
		tab.Row(metric, fmt.Sprintf("%.1f", frac[a]), fmt.Sprintf("%.1f", frac[b]),
			fmt.Sprintf("%.1f", frac[a.Mul(b)]))
	}
	sb.WriteString(tab.String())

	sb.WriteString("\nlive simulation (netsim, 16 processors, 2000 cycles):\n\n")
	cfg := netsim.Config{Procs: 16, Cycles: 2000, Think: 1, Seed: 99}
	nets := []netsim.Network{netsim.Crossbar{N: 16}, netsim.Omega{N: 16}}
	pats := []netsim.Pattern{netsim.RandomPattern{}, netsim.MatrixPattern{}}
	resp := map[string][]float64{"T": make([]float64, 4), "N": make([]float64, 4), "R": make([]float64, 4)}
	runTab := harness.NewTable().Header("network", "pattern", "T", "N", "R")
	for run := 0; run < 4; run++ {
		net := nets[st.LevelIndex(run, 0)]
		pat := pats[st.LevelIndex(run, 1)]
		m, err := netsim.Simulate(net, pat, cfg)
		if err != nil {
			return nil, err
		}
		resp["T"][run], resp["N"][run], resp["R"][run] = m.Throughput, m.Transit90, m.AvgResponse
		runTab.Row(net.Name(), pat.Name(), fmt.Sprintf("%.4f", m.Throughput),
			fmt.Sprintf("%.0f", m.Transit90), fmt.Sprintf("%.3f", m.AvgResponse))
	}
	sb.WriteString(runTab.String())
	liveTab := harness.NewTable().Header("metric", "qA(network)%", "qB(pattern)%", "qAB%")
	for _, metric := range []string{"T", "N", "R"} {
		ef, err := design.EstimateEffects(st, resp[metric])
		if err != nil {
			return nil, err
		}
		frac := map[design.Effect]float64{}
		for _, v := range ef.AllocateVariation() {
			frac[v.Effect] = v.Fraction * 100
		}
		series["live-"+metric] = []float64{frac[a], frac[b], frac[a.Mul(b)]}
		liveTab.Row(metric, fmt.Sprintf("%.1f", frac[a]), fmt.Sprintf("%.1f", frac[b]),
			fmt.Sprintf("%.1f", frac[a.Mul(b)]))
	}
	sb.WriteString("\nvariation explained (live):\n\n")
	sb.WriteString(liveTab.String())
	sb.WriteString("\nConclusion: the address pattern influences most.\n")

	return &Result{
		ID: "t5", Title: "Allocation of variation", Slides: "86-93",
		Text: sb.String(), Series: series,
		Notes: "The published percentages (77/80/87.8% for the pattern) are reproduced " +
			"exactly from the published responses; the live simulator reproduces the " +
			"qualitative conclusion (pattern dominates, interaction smallest).",
	}, nil
}

// RunT6 regenerates slides 100-103: the construction of a 2^(7-4)
// fractional factorial design and its properties.
func RunT6(ctx context.Context) (*Result, error) {
	var factors []design.Factor
	for i := 0; i < 7; i++ {
		factors = append(factors, design.MustFactor(string(rune('A'+i)), "-1", "+1"))
	}
	var gens []design.Generator
	for _, s := range []string{"D=AB", "E=AC", "F=BC", "G=ABC"} {
		g, err := design.ParseGenerator(s)
		if err != nil {
			return nil, err
		}
		gens = append(gens, g)
	}
	fr, err := design.NewFractional(factors, gens)
	if err != nil {
		return nil, err
	}
	st := fr.Table
	tab := harness.NewTable()
	header := []string{"Exp."}
	for i := 0; i < 7; i++ {
		header = append(header, string(rune('A'+i)))
	}
	tab.Header(header...)
	zeroSum := make([]float64, 7)
	for r := 0; r < st.Runs; r++ {
		cells := []string{fmt.Sprintf("%d", r+1)}
		for f := 0; f < 7; f++ {
			s := st.Sign(r, design.MainEffect(f))
			zeroSum[f] += s
			cells = append(cells, fmt.Sprintf("%+g", s))
		}
		tab.Row(cells...)
	}
	text := "generators: D=AB, E=AC, F=BC, G=ABC\n\n" + tab.String() +
		"\n7 zero-sum columns: both levels get equally tested.\n" +
		"All main-effect columns are pairwise orthogonal.\n" +
		fmt.Sprintf("runs: %d instead of 2^7 = 128\n", st.Runs)
	return &Result{
		ID: "t6", Title: "Preparing a fractional factorial design 2^(7-4)", Slides: "100-103",
		Text:   text,
		Series: map[string][]float64{"column-sums": zeroSum, "runs": {float64(st.Runs)}},
	}, nil
}

// RunT7 regenerates slides 104-109: the confounding structure of the two
// 2^(4-1) half-fractions D=ABC and D=AB, and why D=ABC is preferred.
func RunT7(ctx context.Context) (*Result, error) {
	var factors []design.Factor
	for i := 0; i < 4; i++ {
		factors = append(factors, design.MustFactor(string(rune('A'+i)), "-1", "+1"))
	}
	gABC, err := design.ParseGenerator("D=ABC")
	if err != nil {
		return nil, err
	}
	gAB, err := design.ParseGenerator("D=AB")
	if err != nil {
		return nil, err
	}
	frABC, err := design.NewFractional(factors, []design.Generator{gABC})
	if err != nil {
		return nil, err
	}
	frAB, err := design.NewFractional(factors, []design.Generator{gAB})
	if err != nil {
		return nil, err
	}
	pref, reason := design.Compare(frABC, frAB)
	var sb strings.Builder
	fmt.Fprintf(&sb, "confoundings of D=ABC (resolution %d):\n%s\n", frABC.Resolution(), frABC.ConfoundingTable())
	fmt.Fprintf(&sb, "confoundings of D=AB (resolution %d):\n%s\n", frAB.Resolution(), frAB.ConfoundingTable())
	fmt.Fprintf(&sb, "preferred: %s\n%s\n", pref.Generators[0], reason)
	return &Result{
		ID: "t7", Title: "Comparison of two 2^(4-1) designs", Slides: "104-109",
		Text: sb.String(),
		Series: map[string][]float64{
			"resolution": {float64(frABC.Resolution()), float64(frAB.Resolution())},
		},
	}, nil
}
