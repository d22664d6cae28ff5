package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

// The benchmark resolves BENCHMARK.json, .bench_build/ and bench/out/
// against the checkout root, where the driver runs it; so do the tests.
func TestMain(m *testing.M) {
	if err := os.Chdir(".."); err != nil {
		panic(err)
	}
	os.Exit(m.Run())
}

// manifest is BENCHMARK.json as the builder contract defines it.
type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []metricDef `json:"end_to_end"`
	PerLayer []struct {
		Name   string `json:"name"`
		Unit   string `json:"unit"`
		Better string `json:"better"`
	} `json:"per_layer"`
}

func readManifest(t *testing.T) manifest {
	t.Helper()
	data, err := os.ReadFile("BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, manifestJSON()) {
		t.Error("BENCHMARK.json differs from the catalogue in the program; regenerate it with `.bench_build/bench -manifest > BENCHMARK.json`")
	}
	var m manifest
	dec := json.NewDecoder(bytes.NewReader(data))
	dec.DisallowUnknownFields()
	if err := dec.Decode(&m); err != nil {
		t.Fatal(err)
	}
	return m
}

// TestManifestWithinContract holds BENCHMARK.json to the limits the
// driver refuses a file outside of, before a single run.
func TestManifestWithinContract(t *testing.T) {
	m := readManifest(t)
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unit := regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
	seen := map[string]bool{}
	check := func(kind, n string) {
		if !name.MatchString(n) {
			t.Errorf("%s name %q is outside the contract's alphabet or length", kind, n)
		}
		if seen[n] {
			t.Errorf("name %q is used twice", n)
		}
		seen[n] = true
	}
	if n := len(m.Workloads); n < 2 || n > 8 {
		t.Errorf("%d workloads, contract allows 2 to 8", n)
	}
	for _, w := range m.Workloads {
		check("workload", w.Name)
		if len(w.Why) == 0 || len(w.Why) > 200 || strings.Contains(w.Why, "\n") {
			t.Errorf("workload %s: why must be one line of at most 200 characters, has %d", w.Name, len(w.Why))
		}
	}
	if n := len(m.EndToEnd); n < 1 || n > 16 {
		t.Errorf("%d end-to-end metrics, contract allows 1 to 16", n)
	}
	setup := false
	for _, d := range m.EndToEnd {
		check("end-to-end", d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") || d.Bound <= 0 || d.Bound > 0.25 {
			t.Errorf("end-to-end %s: unit %q, better %q, bound %g", d.Name, d.Unit, d.Better, d.Bound)
		}
		setup = setup || (d.Name == "setup_s" && d.Unit == "s" && d.Better == "lower")
	}
	if !setup {
		t.Error("no setup_s metric with unit s and better lower")
	}
	if n := len(m.PerLayer); n < 1 || n > 128 {
		t.Errorf("%d per-layer metrics, contract allows 1 to 128", n)
	}
	for _, d := range m.PerLayer {
		check("per-layer", d.Name)
		if !unit.MatchString(d.Unit) || (d.Better != "lower" && d.Better != "higher") {
			t.Errorf("per-layer %s: unit %q, better %q", d.Name, d.Unit, d.Better)
		}
	}
	if m.RunSeconds < 1 || m.RunSeconds > 60 {
		t.Errorf("run_seconds %d", m.RunSeconds)
	}
	// 4 + 22 × workloads runs, each run_seconds plus 6 s of building,
	// set-up and the uncounted repetition, and two compilations of 30 s
	// must fit 3420 s with a twentieth to spare.
	if runs := 4 + 22*len(m.Workloads); runs*(m.RunSeconds+6)+60 > 3420*95/100 {
		t.Errorf("%d runs of %d s leave too little of 3420 s for set-up and builds", runs, m.RunSeconds)
	}
	gated := 0
	for _, w := range workloads {
		if w.gated {
			gated++
		}
	}
	if gated != len(m.Workloads) {
		t.Errorf("BENCHMARK.json lists %d workloads, the program gates %d", len(m.Workloads), gated)
	}
}

// TestSmoke runs every workload, gated or not, at a twentieth of its
// size, one untraced repetition and then one of each kind, and checks
// what the driver checks: every declared name exactly once and nothing
// undeclared, correct outputs, end-to-end metrics that are never 0, a
// contract line that parses — plus a layer budget that closes.
func TestSmoke(t *testing.T) {
	m := readManifest(t)
	for _, w := range workloads {
		for _, trace := range []bool{false, true} {
			var out bytes.Buffer
			res, err := measure(context.Background(), config{workload: w.name, seed: 7, seconds: 0, scale: 0.05, trace: trace}, &out)
			if err != nil {
				t.Fatalf("%s trace=%v: %v", w.name, trace, err)
			}
			if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
				t.Errorf("%s trace=%v: correct=%v attempted=%d failed=%d %v", w.name, trace, res.Correct, res.Attempted, res.Failed, res.Failures)
			}
			want := map[string]string{}
			if trace {
				for _, d := range m.PerLayer {
					want[d.Name] = d.Unit
				}
			} else {
				for _, d := range m.EndToEnd {
					want[d.Name] = d.Unit
				}
			}
			lines := strings.Split(strings.TrimSpace(out.String()), "\n")
			var line struct {
				Correct   bool `json:"correct"`
				Attempted int  `json:"attempted"`
				Failed    int  `json:"failed"`
				Metrics   map[string]struct {
					Value *float64 `json:"value"`
					Unit  string   `json:"unit"`
				} `json:"metrics"`
			}
			dec := json.NewDecoder(strings.NewReader(lines[len(lines)-1]))
			dec.DisallowUnknownFields()
			if err := dec.Decode(&line); err != nil {
				t.Fatalf("%s trace=%v: last line is not the contract object: %v", w.name, trace, err)
			}
			if len(res.Metrics) != len(want) || len(line.Metrics) != len(want) {
				t.Errorf("%s trace=%v: %d metrics reported, %d on the contract line, %d declared", w.name, trace, len(res.Metrics), len(line.Metrics), len(want))
			}
			for _, got := range res.Metrics {
				u, ok := want[got.Name]
				if !ok {
					t.Errorf("%s trace=%v: %s is reported but not declared (or reported twice)", w.name, trace, got.Name)
					continue
				}
				delete(want, got.Name)
				if got.Unit != u {
					t.Errorf("%s: %s has unit %q, declared %q", w.name, got.Name, got.Unit, u)
				}
				if math.IsNaN(got.Value) || math.IsInf(got.Value, 0) {
					t.Errorf("%s: %s = %v", w.name, got.Name, got.Value)
				}
				if !trace && got.Value <= 0 {
					t.Errorf("%s: end-to-end metric %s = %v, must never be 0", w.name, got.Name, got.Value)
				}
				// At this size fixed costs weigh twenty times more than
				// at scale 1, so the smoke tolerance is loose; README.md
				// records the ratios at scale 1.
				if got.Name == "bench.unattributed_ratio" && (got.Value < -0.01 || got.Value > 0.3) {
					t.Errorf("%s: %v of the timed section's worker-seconds is in no layer's span", w.name, got.Value)
				}
			}
			for name := range want {
				t.Errorf("%s trace=%v: declared metric %s was not reported", w.name, trace, name)
			}
		}
		if err := os.Remove(filepath.Join(traceDir, "trace-"+w.name+".json")); err != nil {
			t.Errorf("traced run left no trace file: %v", err)
		}
	}
}

// TestSelfTime pins the rule the budget rests on: a span's self time is
// its duration minus the union of its children's intervals.
func TestSelfTime(t *testing.T) {
	spans := []span{
		{ID: 1, Parent: 0, Name: "root", StartNS: 0, EndNS: 100},
		{ID: 2, Parent: 1, Name: "a", StartNS: 10, EndNS: 50}, // overlaps b by 20
		{ID: 3, Parent: 1, Name: "b", StartNS: 30, EndNS: 70},
		{ID: 4, Parent: 2, Name: "c", StartNS: 20, EndNS: 30},
		{ID: 5, Parent: 0, Name: "elsewhere", StartNS: 0, EndNS: 1000},
	}
	p := summarize(subtree(spans, 1))
	for name, want := range map[string]float64{"root": 40e-9, "a": 30e-9, "b": 40e-9, "c": 10e-9} {
		if got := p.self[name]; math.Abs(got-want) > 1e-15 {
			t.Errorf("self[%s] = %g, want %g", name, got, want)
		}
	}
	if _, ok := p.self["elsewhere"]; ok {
		t.Error("subtree kept a span outside the root")
	}
}

// TestSpread pins spread to Python's statistics.quantiles(xs, n=4), the
// driver's yardstick: for 1..10 the quartiles are 2.75, 5.5, 8.25.
func TestSpread(t *testing.T) {
	xs := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got := spread(xs); math.Abs(got-1) > 1e-12 {
		t.Errorf("spread(1..10) = %v, want (8.25-2.75)/5.5 = 1", got)
	}
}

// TestCompareVerdicts drives -compare over hand-made result files that,
// like a set the driver or aa.sh makes, hold the gated workloads only:
// a workload neither file holds is not a finding.
func TestCompareVerdicts(t *testing.T) {
	write := func(name string, scale func(workload, metric string, run int) float64) string {
		path := filepath.Join(t.TempDir(), name)
		for _, w := range workloads {
			if !w.gated {
				continue
			}
			for run := 0; run < 10; run++ {
				res := &result{Workload: w.name, Correct: true}
				for _, d := range endToEnd {
					res.Metrics = append(res.Metrics, metricOut{metricDef: d, Value: 100 * scale(w.name, d.Name, run)})
				}
				if err := appendResult(path, res); err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	steady := func(string, string, int) float64 { return 1 }
	a := write("a.jsonl", steady)
	for _, tc := range []struct {
		name      string
		b         func(workload, metric string, run int) float64
		regressed bool
		verdict   string // expected on the local-run records_per_s row
	}{
		{"same", steady, false, "ok"},
		{"slower", func(w, m string, _ int) float64 {
			if w == "local-run" && m == "records_per_s" {
				return 0.7 // higher is better, bound 0.25
			}
			return 1
		}, true, "regressed"},
		{"faster", func(w, m string, _ int) float64 {
			if w == "local-run" && m == "records_per_s" {
				return 1.5
			}
			return 1
		}, false, "ok"},
		{"noisy", func(w, m string, run int) float64 {
			if w == "local-run" && m == "records_per_s" {
				return 0.7 + 0.06*float64(run) // straddles A, spread far above the bound
			}
			return 1
		}, false, "unresolved"},
	} {
		var out bytes.Buffer
		regressed, err := compareFiles(&out, a, write(tc.name+".jsonl", tc.b))
		if err != nil {
			t.Fatal(err)
		}
		if regressed != tc.regressed {
			t.Errorf("%s: regressed = %v, want %v\n%s", tc.name, regressed, tc.regressed, out.String())
		}
		for _, line := range strings.Split(out.String(), "\n") {
			f := strings.Fields(line)
			if len(f) > 2 && f[0] == "local-run" && f[1] == "records_per_s" && f[len(f)-1] != tc.verdict {
				t.Errorf("%s: verdict %q, want %q", tc.name, f[len(f)-1], tc.verdict)
			}
		}
	}
}

// TestReferenceSpeed pins the conversion: a repetition measured while the
// probe took twice the reference time ran on a machine of speed 0.5, and
// each of its durations counts for half; counts are left alone, and Raw
// keeps the clock's reading.
func TestReferenceSpeed(t *testing.T) {
	if got := speedBetween(2*referenceProbe, 2*referenceProbe); got != 0.5 {
		t.Fatalf("speedBetween(2×reference, 2×reference) = %v, want 0.5", got)
	}
	slow := sample{records: 1000, wall: 2 * time.Second, resume: 200 * time.Millisecond, bytes: 5000, stored: 100,
		latencies: []float64{8}, speed: 0.5}
	got := map[string]metricOut{}
	for _, m := range endToEndMetrics([]timing{{seconds: 4, speed: 0.5}}, []sample{slow}) {
		got[m.Name] = m
	}
	for name, want := range map[string][2]float64{ // converted, as clocked
		"setup_s":          {2, 4},
		"records_per_s":    {1000, 500},
		"resume_s":         {0.1, 0.2},
		"op_ms_p50":        {4, 8},
		"bytes_per_record": {50, 50},
	} {
		if m := got[name]; math.Abs(m.Value-want[0]) > 1e-9 || math.Abs(m.Raw-want[1]) > 1e-9 {
			t.Errorf("%s = %v (as clocked %v), want %v (%v)", name, m.Value, m.Raw, want[0], want[1])
		}
	}
}

// TestCalm pins the rule for repetitions measured under host steal: set
// aside above stealLimit, unless fewer than minCalm would remain.
func TestCalm(t *testing.T) {
	id := func(x float64) float64 { return x }
	mostlyQuiet := []float64{0, 0.01, 0.3, 0, 0.02, 0.05, 0, 0}
	if got := calm(mostlyQuiet, id); len(got) != 6 {
		t.Errorf("calm kept %d of %v, want the 6 at or below %v", len(got), mostlyQuiet, stealLimit)
	}
	neverQuiet := []float64{0.2, 0.3, 0, 0.25, 0.4, 0.01}
	if got := calm(neverQuiet, id); len(got) != len(neverQuiet) {
		t.Errorf("calm kept %d of %v, want all: fewer than %d are quiet", len(got), neverQuiet, minCalm)
	}
}
