package netsim

import (
	"testing"
	"testing/quick"

	"repro/internal/design"
)

func cfg() Config { return Config{Procs: 16, Cycles: 2000, Think: 1, Seed: 99} }

func TestConfigValidate(t *testing.T) {
	bad := []Config{
		{Procs: 0, Cycles: 10},
		{Procs: 3, Cycles: 10}, // not a power of two
		{Procs: 16, Cycles: 0}, // no cycles
		{Procs: 16, Cycles: 10, Think: -1},
	}
	for _, c := range bad {
		if err := c.Validate(); err == nil {
			t.Errorf("config %+v should be invalid", c)
		}
	}
	if err := cfg().Validate(); err != nil {
		t.Errorf("good config rejected: %v", err)
	}
	if _, err := Simulate(Crossbar{N: 16}, RandomPattern{}, Config{Procs: 3, Cycles: 1}); err == nil {
		t.Error("Simulate should propagate config errors")
	}
}

func TestOmegaRouting(t *testing.T) {
	o := Omega{N: 8}
	if o.stages() != 3 {
		t.Fatalf("stages = %d", o.stages())
	}
	r := o.Route(0, 7)
	if len(r) != 3 { // stages 1..2 (stage 0 buffered) + module port
		t.Fatalf("route length = %d", len(r))
	}
	// Same (src,dst) always routes identically.
	r2 := o.Route(0, 7)
	for i := range r {
		if r[i] != r2[i] {
			t.Error("routing must be deterministic")
		}
	}
	// Distinct destinations from one source use distinct module ports.
	a, b := o.Route(3, 1), o.Route(3, 2)
	if a[len(a)-1] == b[len(b)-1] {
		t.Error("module ports must differ for different destinations")
	}
	// Crossbar route is just the module port.
	c := Crossbar{N: 8}
	if got := c.Route(5, 3); len(got) != 1 || got[0] != 3 {
		t.Errorf("crossbar route = %v", got)
	}
}

func TestOmegaBlockingExists(t *testing.T) {
	// The omega network must block some permutation pairs that a crossbar
	// would pass: find two requests with distinct sources and distinct
	// destinations that share an internal link.
	o := Omega{N: 8}
	found := false
	for s1 := 0; s1 < 8 && !found; s1++ {
		for s2 := s1 + 1; s2 < 8 && !found; s2++ {
			for d1 := 0; d1 < 8 && !found; d1++ {
				for d2 := 0; d2 < 8 && !found; d2++ {
					if d1 == d2 {
						continue
					}
					links1 := o.Route(s1, d1)
					links2 := o.Route(s2, d2)
					set := map[int]bool{}
					for _, l := range links1[:len(links1)-1] { // internal only
						set[l] = true
					}
					for _, l := range links2[:len(links2)-1] {
						if set[l] {
							found = true
						}
					}
				}
			}
		}
	}
	if !found {
		t.Error("omega network shows no internal blocking; routing is wrong")
	}
}

func TestSimulateDeterministic(t *testing.T) {
	m1, err := Simulate(Omega{N: 16}, RandomPattern{}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	m2, err := Simulate(Omega{N: 16}, RandomPattern{}, cfg())
	if err != nil {
		t.Fatal(err)
	}
	if m1 != m2 {
		t.Errorf("same seed gave %+v vs %+v", m1, m2)
	}
	// The seed is what a replicate varies: the next one is a different run.
	c := cfg()
	c.Seed++
	m3, err := Simulate(Omega{N: 16}, RandomPattern{}, c)
	if err != nil {
		t.Fatal(err)
	}
	if m3 == m1 {
		t.Errorf("seeds %d and %d gave the same run %+v", c.Seed-1, c.Seed, m1)
	}
}

func TestMetricsSanity(t *testing.T) {
	for _, net := range []Network{Crossbar{N: 16}, Omega{N: 16}} {
		for _, pat := range []Pattern{RandomPattern{}, MatrixPattern{}} {
			m, err := Simulate(net, pat, cfg())
			if err != nil {
				t.Fatal(err)
			}
			if m.Throughput <= 0 || m.Throughput > 1 {
				t.Errorf("%s/%s: throughput %g outside (0,1]", net.Name(), pat.Name(), m.Throughput)
			}
			if m.AvgResponse < float64(net.PathLen()) {
				t.Errorf("%s/%s: response %g below path length", net.Name(), pat.Name(), m.AvgResponse)
			}
			if m.Transit90 < m.AvgResponse/2 {
				t.Errorf("%s/%s: transit90 %g implausibly below mean %g", net.Name(), pat.Name(), m.Transit90, m.AvgResponse)
			}
			if m.Completed <= 0 {
				t.Errorf("%s/%s: nothing completed", net.Name(), pat.Name())
			}
		}
	}
}

// TestQualitativeStructure pins the phenomena the paper's example shows:
// the matrix (stride) pattern degrades throughput on BOTH networks, and the
// crossbar beats the omega under random traffic (no internal blocking).
func TestQualitativeStructure(t *testing.T) {
	c := cfg()
	tput := map[string]float64{}
	for _, net := range []Network{Crossbar{N: 16}, Omega{N: 16}} {
		for _, pat := range []Pattern{RandomPattern{}, MatrixPattern{}} {
			m, err := Simulate(net, pat, c)
			if err != nil {
				t.Fatal(err)
			}
			tput[net.Name()+"/"+pat.Name()] = m.Throughput
		}
	}
	if tput["Crossbar/Matrix"] >= tput["Crossbar/Random"] {
		t.Errorf("matrix pattern should hurt the crossbar: %v", tput)
	}
	if tput["Omega/Matrix"] >= tput["Omega/Random"] {
		t.Errorf("matrix pattern should hurt the omega: %v", tput)
	}
	if tput["Omega/Random"] >= tput["Crossbar/Random"] {
		t.Errorf("crossbar should beat omega under random traffic: %v", tput)
	}
}

// TestLiveAllocationOfVariation runs the full 2^2 experiment on the live
// simulator and checks the paper's conclusion holds: the address pattern
// explains the largest share of throughput variation, the interaction the
// smallest.
func TestLiveAllocationOfVariation(t *testing.T) {
	factors := []design.Factor{
		design.MustFactor("network", "Crossbar", "Omega"),
		design.MustFactor("pattern", "Random", "Matrix"),
	}
	st, err := design.NewSignTable(factors)
	if err != nil {
		t.Fatal(err)
	}
	c := cfg()
	nets := []Network{Crossbar{N: 16}, Omega{N: 16}}
	pats := []Pattern{RandomPattern{}, MatrixPattern{}}
	y := make([]float64, 4)
	for run := 0; run < 4; run++ {
		net := nets[st.LevelIndex(run, 0)]
		pat := pats[st.LevelIndex(run, 1)]
		m, err := Simulate(net, pat, c)
		if err != nil {
			t.Fatal(err)
		}
		y[run] = m.Throughput
	}
	ef, err := design.EstimateEffects(st, y)
	if err != nil {
		t.Fatal(err)
	}
	frac := map[design.Effect]float64{}
	for _, v := range ef.AllocateVariation() {
		frac[v.Effect] = v.Fraction
	}
	a, b := design.MainEffect(0), design.MainEffect(1)
	if !(frac[b] > frac[a]) {
		t.Errorf("pattern (%.1f%%) should explain more than network (%.1f%%)",
			frac[b]*100, frac[a]*100)
	}
	if !(frac[a.Mul(b)] < frac[a]) {
		t.Errorf("interaction (%.1f%%) should explain least", frac[a.Mul(b)]*100)
	}
	if frac[b] < 0.5 {
		t.Errorf("pattern explains only %.1f%%, want dominant (>50%%)", frac[b]*100)
	}
}

// TestPaperDataReproducesPercentages verifies the published table yields
// the published variation-explained percentages.
func TestPaperDataReproducesPercentages(t *testing.T) {
	factors := []design.Factor{
		design.MustFactor("network", "Crossbar", "Omega"),
		design.MustFactor("pattern", "Random", "Matrix"),
	}
	st, _ := design.NewSignTable(factors)
	want := map[string][3]float64{
		"T": {17.2, 77.0, 5.8},
		"N": {20, 80, 0},
		"R": {10.9, 87.8, 1.3},
	}
	a, b := design.MainEffect(0), design.MainEffect(1)
	for metric, ys := range PaperData() {
		ef, err := design.EstimateEffects(st, ys)
		if err != nil {
			t.Fatal(err)
		}
		frac := map[design.Effect]float64{}
		for _, v := range ef.AllocateVariation() {
			frac[v.Effect] = v.Fraction * 100
		}
		w := want[metric]
		for i, e := range []design.Effect{a, b, a.Mul(b)} {
			if diff := frac[e] - w[i]; diff > 0.1 || diff < -0.1 {
				t.Errorf("%s effect %s = %.1f%%, want %.1f%%", metric, e, frac[e], w[i])
			}
		}
	}
}

// Property: throughput never exceeds 1 and is deterministic per seed, for
// arbitrary small configurations.
func TestSimulatePropertiesQuick(t *testing.T) {
	f := func(seedRaw uint16, sizeRaw, thinkRaw uint8) bool {
		size := 4 << (sizeRaw % 3) // 4, 8, 16
		c := Config{Procs: size, Cycles: 300, Think: int(thinkRaw % 3), Seed: uint64(seedRaw)}
		for _, net := range []Network{Crossbar{N: size}, Omega{N: size}} {
			m, err := Simulate(net, RandomPattern{}, c)
			if err != nil {
				return false
			}
			if m.Throughput < 0 || m.Throughput > 1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Error(err)
	}
}
