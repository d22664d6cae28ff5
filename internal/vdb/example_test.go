package vdb_test

import (
	"fmt"
	"log"
	"time"

	"repro/internal/hwsim"
	"repro/internal/stats"
	"repro/internal/tpch"
	"repro/internal/vdb"
)

// The paper's "of apples and oranges" chapter as a workflow: an unfair
// comparison is caught before any number is produced; the fair one runs
// both engines on the same machine, build mode and buffer warmth, with
// replicates, and decides by confidence intervals.
func ExampleCheckFairComparison() {
	db, err := tpch.Gen(0.01, 42)
	if err != nil {
		log.Fatal(err)
	}
	q, err := tpch.Q(1)
	if err != nil {
		log.Fatal(err)
	}
	machine := hwsim.PentiumM2005
	newCtx := func() *vdb.ExecContext {
		ctx := vdb.NewSimContext(db, &machine, hwsim.NewVirtualClock())
		ctx.Buffers.WarmAll(db.TableNames())
		return ctx
	}

	a, b := newCtx(), newCtx()
	b.Mode = hwsim.Debug // built without optimisation
	fmt.Println("unfair comparison:")
	for _, issue := range vdb.CheckFairComparison(a, b, db.TableNames()) {
		fmt.Println("  -", issue)
	}
	fmt.Println("fair comparison:", len(vdb.CheckFairComparison(a, newCtx(), db.TableNames())), "issue(s)")

	measure := func(engine vdb.Engine) []float64 {
		var ms []float64
		for rep := 0; rep < 5; rep++ {
			ctx := newCtx()
			start := ctx.Clock.Now()
			// A deterministic per-replicate perturbation stands in for
			// run-to-run noise.
			ctx.Clock.AdvanceCPU(float64(rep) * 1e4)
			if _, err := vdb.Run(ctx, engine, q.Plan); err != nil {
				log.Fatal(err)
			}
			ms = append(ms, float64(ctx.Clock.Now()-start)/float64(time.Millisecond))
		}
		return ms
	}
	cmp, err := stats.CompareAlternatives(measure(vdb.RowEngine{}), measure(vdb.ColumnEngine{}), 0.95)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("tuple-at-a-time:  %v ms\n", cmp.A)
	fmt.Printf("column-at-a-time: %v ms\n", cmp.B)
	fmt.Printf("verdict: %s, speed-up %.1fx\n", cmp.Verdict, stats.Speedup(cmp.A.Mean, cmp.B.Mean))
	// Output:
	// unfair comparison:
	//   - build modes differ: OPT vs DBG (the paper's compiler anecdote: up to factor 2)
	// fair comparison: 0 issue(s)
	// tuple-at-a-time:  0.6754 [0.6558, 0.6951] @95% ms
	// column-at-a-time: 0.1449 [0.1253, 0.1645] @95% ms
	// verdict: B lower, speed-up 4.7x
}
