package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/hwsim"
	"repro/internal/netsim"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/vdb"
)

// Each Benchmark_<id>_* regenerates one table or figure of the paper and
// prints its rows once (so `go test -bench=.` reproduces the evaluation
// section end to end), while testing.B measures the real cost of the real
// work behind it.

var printOnce sync.Map

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	var last *Result
	for i := 0; i < b.N; i++ {
		out, err := Run(context.Background(), id, RunConfig{})
		if err != nil {
			b.Fatal(err)
		}
		last = out.Result
	}
	if _, done := printOnce.LoadOrStore(id, true); !done && last != nil {
		fmt.Fprintf(os.Stdout, "\n=== %s (slides %s): %s ===\n%s\n", last.ID, last.Slides, last.Title, last.Text)
	}
}

func Benchmark_T1_ServerClientOutput(b *testing.B)    { benchExperiment(b, "t1") }
func Benchmark_T2_HotCold(b *testing.B)               { benchExperiment(b, "t2") }
func Benchmark_F1_DbgOpt(b *testing.B)                { benchExperiment(b, "f1") }
func Benchmark_F2_MemoryWall(b *testing.B)            { benchExperiment(b, "f2") }
func Benchmark_F3_ProfileQ1(b *testing.B)             { benchExperiment(b, "f3") }
func Benchmark_T3_Interaction(b *testing.B)           { benchExperiment(b, "t3") }
func Benchmark_T4_TwoByTwo(b *testing.B)              { benchExperiment(b, "t4") }
func Benchmark_T5_AllocationOfVariation(b *testing.B) { benchExperiment(b, "t5") }
func Benchmark_T6_Fractional74(b *testing.B)          { benchExperiment(b, "t6") }
func Benchmark_T7_Confounding(b *testing.B)           { benchExperiment(b, "t7") }
func Benchmark_F4_ChartLint(b *testing.B)             { benchExperiment(b, "f4") }
func Benchmark_F5_HistogramCI(b *testing.B)           { benchExperiment(b, "f5") }
func Benchmark_F6_AspectAxes(b *testing.B)            { benchExperiment(b, "f6") }
func Benchmark_T8_GnuplotPipeline(b *testing.B)       { benchExperiment(b, "t8") }
func Benchmark_T9_LocaleHazard(b *testing.B)          { benchExperiment(b, "t9") }
func Benchmark_T10_SpecReport(b *testing.B)           { benchExperiment(b, "t10") }
func Benchmark_F7_Repeatability(b *testing.B)         { benchExperiment(b, "f7") }

// --- substrate micro-benchmarks (real work, real allocations) ---

func benchDB(b *testing.B, sf float64) *vdb.DB {
	b.Helper()
	db, err := tpch.Gen(sf, 42)
	if err != nil {
		b.Fatal(err)
	}
	return db
}

func BenchmarkEngineQ1Row(b *testing.B) {
	db := benchDB(b, 0.05)
	q, _ := tpch.Q(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vdb.Run(vdb.NewContext(db), vdb.RowEngine{}, q.Plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineQ1Column(b *testing.B) {
	db := benchDB(b, 0.05)
	q, _ := tpch.Q(1)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vdb.Run(vdb.NewContext(db), vdb.ColumnEngine{}, q.Plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkEngineJoinColumn(b *testing.B) {
	db := benchDB(b, 0.05)
	q, _ := tpch.Q(3)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := vdb.Run(vdb.NewContext(db), vdb.ColumnEngine{}, q.Plan); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTPCHGen(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := tpch.Gen(0.05, uint64(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimCrossbarRandom(b *testing.B) {
	cfg := netsim.Config{Procs: 16, Cycles: 1000, Think: 1, Seed: 7}
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Simulate(netsim.Crossbar{N: 16}, netsim.RandomPattern{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkNetsimOmegaMatrix(b *testing.B) {
	cfg := netsim.Config{Procs: 16, Cycles: 1000, Think: 1, Seed: 7}
	for i := 0; i < b.N; i++ {
		if _, err := netsim.Simulate(netsim.Omega{N: 16}, netsim.MatrixPattern{}, cfg); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkSignTableEffects(b *testing.B) {
	var factors []design.Factor
	for i := 0; i < 8; i++ {
		factors = append(factors, design.MustFactor(string(rune('A'+i)), "-", "+"))
	}
	st, err := design.NewSignTable(factors)
	if err != nil {
		b.Fatal(err)
	}
	y := make([]float64, st.Runs)
	for i := range y {
		y[i] = float64(i % 17)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ef, err := design.EstimateEffects(st, y)
		if err != nil {
			b.Fatal(err)
		}
		_ = ef.AllocateVariation()
	}
}

func BenchmarkStatsCI(b *testing.B) {
	xs := make([]float64, 1000)
	for i := range xs {
		xs[i] = float64(i % 37)
	}
	for i := 0; i < b.N; i++ {
		if _, err := stats.MeanCI(xs, 0.95); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkScanCostModel(b *testing.B) {
	m := hwsim.PentiumM2005
	for i := 0; i < b.N; i++ {
		_ = m.ScanCost(1<<20, 8)
	}
}

// --- ablation benches: each times one design choice against its
// alternative on the same input ---

// BenchmarkAblationTupleOverhead quantifies the cost model's central knob:
// the same Q1 on the row engine with and without per-tuple overhead
// charging (simulated vs plain context). The delta is pure accounting cost.
func BenchmarkAblationTupleOverhead(b *testing.B) {
	db := benchDB(b, 0.02)
	q, _ := tpch.Q(1)
	m := hwsim.PentiumM2005
	b.Run("plain", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			if _, err := vdb.Run(vdb.NewContext(db), vdb.RowEngine{}, q.Plan); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("simulated", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			ctx := vdb.NewSimContext(db, &m, hwsim.NewVirtualClock())
			ctx.Buffers.WarmAll(db.TableNames())
			if _, err := vdb.Run(ctx, vdb.RowEngine{}, q.Plan); err != nil {
				b.Fatal(err)
			}
		}
	})
}

// BenchmarkAdaptiveVsFixed quantifies what CI-targeted sequential
// analysis saves over a fixed replication budget on a simulated
// mixed-variance workload: half the cells are nearly noise-free (the
// fixed budget over-measures them), half are noisy (both schedulers
// must spend real replicates). The replicates/op metrics are the story;
// time/op tracks the harness overhead of the dynamic scheduler.
func BenchmarkAdaptiveVsFixed(b *testing.B) {
	const fixedReps = 40
	runner := func(a design.Assignment, rep int) (map[string]float64, error) {
		amp := 0.001 // low-variance cell: ±0.1%
		if a["noise"] == "hi" {
			amp = 0.2 // high-variance cell: ±20%
		}
		scale := map[string]float64{"1GB": 1, "10GB": 10}[a["data"]]
		jitter := math.Sin(float64(rep)*2.399963) * amp
		return map[string]float64{"ms": 100 * scale * (1 + jitter)}, nil
	}
	experiment := func() *harness.Experiment {
		d, err := design.FullFactorial([]design.Factor{
			design.MustFactor("noise", "lo", "hi"),
			design.MustFactor("data", "1GB", "10GB"),
		})
		if err != nil {
			b.Fatal(err)
		}
		d.Replicates = fixedReps
		return &harness.Experiment{
			Name: "mixed-variance", Design: d, Responses: []string{"ms"}, Run: runner,
		}
	}
	b.Run("fixed", func(b *testing.B) {
		var units int
		for i := 0; i < b.N; i++ {
			s := sched.New(sched.Options{Workers: 4})
			if _, err := s.Execute(context.Background(), experiment()); err != nil {
				b.Fatal(err)
			}
			units = s.LastStats().Units
		}
		b.ReportMetric(float64(units), "replicates/op")
	})
	b.Run("adaptive", func(b *testing.B) {
		var st sched.Stats
		for i := 0; i < b.N; i++ {
			ctrl, err := adaptive.New(adaptive.Options{Rel: 0.05, Min: 3, Max: fixedReps})
			if err != nil {
				b.Fatal(err)
			}
			s := sched.New(sched.Options{Workers: 4, Controller: ctrl})
			if _, err := s.Execute(context.Background(), experiment()); err != nil {
				b.Fatal(err)
			}
			st = s.LastStats()
		}
		b.ReportMetric(float64(st.Units), "replicates/op")
		b.ReportMetric(float64(st.FixedBudget-st.Units), "replicates-saved/op")
	})
}

// BenchmarkAblationFractional quantifies what the 2^(7-4) fraction saves
// over the full 2^7 design at equal analysis machinery.
func BenchmarkAblationFractional(b *testing.B) {
	var factors []design.Factor
	for i := 0; i < 7; i++ {
		factors = append(factors, design.MustFactor(string(rune('A'+i)), "-", "+"))
	}
	b.Run("full-2^7", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			st, err := design.NewSignTable(factors)
			if err != nil {
				b.Fatal(err)
			}
			y := make([]float64, st.Runs)
			if _, err := design.EstimateEffects(st, y); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("fraction-2^3", func(b *testing.B) {
		var gens []design.Generator
		for _, s := range []string{"D=AB", "E=AC", "F=BC", "G=ABC"} {
			g, err := design.ParseGenerator(s)
			if err != nil {
				b.Fatal(err)
			}
			gens = append(gens, g)
		}
		for i := 0; i < b.N; i++ {
			fr, err := design.NewFractional(factors, gens)
			if err != nil {
				b.Fatal(err)
			}
			y := make([]float64, fr.Table.Runs)
			if _, err := fr.Estimate(y); err != nil {
				b.Fatal(err)
			}
		}
	})
}
