package sched

import (
	"context"
	"path/filepath"
	"strconv"
	"testing"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
)

// benchExperiment is a 2^2 x 64 design with a runner doing a few
// microseconds of fixed arithmetic — the small end of a real measurement
// unit (actual experiment runners burn milliseconds), so the pool
// machinery and the instruments carry realistic relative weight. The
// absolute instrumentation cost is two clock reads plus a handful of
// atomic ops per unit (~160ns on a stock VM, dominated by time.Now);
// anything shorter than this runner measures channel handoff, not
// scheduling.
func benchExperiment(b testing.TB) *harness.Experiment {
	b.Helper()
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		b.Fatal(err)
	}
	d.Replicates = 64
	return &harness.Experiment{
		Name:      "bench 2^2",
		Design:    d,
		Responses: []string{"MIPS"},
		Run: func(a design.Assignment, rep int) (map[string]float64, error) {
			v := 1.0
			for i := 0; i < 5000; i++ {
				v += float64(i) * 1e-6
			}
			return map[string]float64{"MIPS": v + float64(rep)}, nil
		},
	}
}

func benchExecute(b *testing.B, s *Scheduler) {
	b.Helper()
	e := benchExperiment(b)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := s.Execute(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkSchedInstrumented measures a fixed-budget run with the
// instruments live (a private registry, so benchmark runs do not pollute
// the process-wide series).
func BenchmarkSchedInstrumented(b *testing.B) {
	benchExecute(b, New(Options{Workers: 4, Metrics: obs.NewRegistry()}))
}

// TestFixedBudgetAllocsPerUnit holds a fixed-budget run to allocating
// what its runner allocates — the response map, 2.2 allocations per unit
// with the per-Execute set-up spread over 256 units — so policy a fixed
// budget does not have cannot start costing per unit: filtering each
// unit's responses for a Controller.Observe that is not there measured
// 4.4, and +60 % ns/op on BenchmarkSchedInstrumented.
func TestFixedBudgetAllocsPerUnit(t *testing.T) {
	e := benchExperiment(t)
	s := New(Options{Workers: 4, Metrics: obs.NewRegistry()})
	perRun := testing.AllocsPerRun(10, func() {
		if _, err := s.Execute(context.Background(), e); err != nil {
			t.Fatal(err)
		}
	})
	if perUnit := perRun / float64(e.Design.NumRuns()*e.Design.Replicates); perUnit > 3 {
		t.Errorf("a fixed-budget run allocates %.1f times per unit, want the runner's own ~2.2", perUnit)
	}
}

// BenchmarkSchedUninstrumented is the baseline: the same scheduler with
// its metrics handle cleared, compiling every instrument call site to a
// nil check. Compare with BenchmarkSchedInstrumented to bound the
// observability overhead (<5% is the budget; see ISSUE 7).
func BenchmarkSchedUninstrumented(b *testing.B) {
	s := New(Options{Workers: 4})
	s.met = nil
	benchExecute(b, s)
}

// BenchmarkSchedJournal is the path the pair above cannot see: the same
// 256 units persisted, two workers into a fresh journal per iteration
// (Options.JournalDir, so opening and closing the file is in the number,
// as it is for a user). The journal has a batch side, so this measures
// the committer: a handful of fsyncs per Execute instead of 256.
func BenchmarkSchedJournal(b *testing.B) {
	e := benchExperiment(b)
	root := b.TempDir()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s := New(Options{Workers: 2, JournalDir: filepath.Join(root, strconv.Itoa(i)), Metrics: obs.NewRegistry()})
		if _, err := s.Execute(context.Background(), e); err != nil {
			b.Fatal(err)
		}
	}
}
