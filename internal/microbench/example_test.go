package microbench_test

import (
	"fmt"
	"log"
	"strings"
	"time"

	"repro/internal/microbench"
	"repro/internal/plot"
)

// The paper's micro-benchmark recipe: synthetic data with controlled
// distributions and correlation, a selectivity sweep over one operator
// on the simulated machine, and a chart that passes the paper's
// guidelines.
func ExampleSweep() {
	spec := microbench.TableSpec{
		Name: "synthetic", Rows: 100000,
		Cols: []microbench.ColSpec{
			{Name: "key", Dist: microbench.Uniform{Lo: 0, Hi: 1}},
			{Name: "payload", CorrelateWith: "key", Corr: microbench.Correlated{Slope: 100, Noise: 5}},
			{Name: "rank", Dist: microbench.Zipf{N: 100, S: 1.1}},
		},
	}
	tab, err := spec.Build(2008)
	if err != nil {
		log.Fatal(err)
	}
	key, _ := tab.Column("key")
	payload, _ := tab.Column("payload")
	fmt.Printf("built %d rows; key-payload correlation r = %.4f\n",
		tab.NumRows(), microbench.Pearson(key.Floats, payload.Floats))

	sweep := &microbench.Sweep{
		Table: tab, Column: "key",
		Selectivities: []float64{0.01, 0.05, 0.1, 0.25, 0.5, 0.75, 1.0},
	}
	points, err := sweep.Run()
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%-12s %-10s %s\n", "selectivity", "rows", "user time")
	for _, p := range points {
		fmt.Printf("%-12g %-10d %v\n", p.Selectivity, p.RowsOut, p.User.Round(time.Microsecond))
	}

	chart := microbench.Chart(points, "Filter cost vs selectivity")
	fmt.Println("guideline violations:", len(plot.Lint(chart)))
	ascii, err := plot.ASCII(chart, 66, 14)
	if err != nil {
		log.Fatal(err)
	}
	for _, line := range strings.Split(ascii, "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
	// Output:
	// built 100000 rows; key-payload correlation r = 0.9853
	// selectivity  rows       user time
	// 0.01         1000       5.963ms
	// 0.05         5000       6.015ms
	// 0.1          10000      6.08ms
	// 0.25         25000      6.275ms
	// 0.5          50000      6.6ms
	// 0.75         75000      6.925ms
	// 1            100000     7.25ms
	// guideline violations: 0
	// Filter cost vs selectivity
	// user time (ms)
	//    7.25 |                                                                 *
	//         |                                                *
	//         |               *                *
	//         |* *  *
	//         |
	//         |
	//         |
	//         |
	//         |
	//         |
	//         |
	//         |
	//         |
	//       0 |
	//         +------------------------------------------------------------------
	//         0.01                                                             1
	//         selectivity (fraction of rows)
	//   * filter + count
}
