// Package paperexp contains one driver per table and figure of the paper's
// worked examples, registered in paper order under the artifact's id
// (t1-t10, f1-f7): Registry is the index of what the repository reproduces.
// Each driver assembles the relevant substrates (vdb engines over tpch data
// on a hwsim machine, the netsim interconnect, the design/stats analysis,
// the plot/sysinfo/repeat tooling), regenerates the artifact, and returns
// both the rendered text and the raw series so benchmarks and tests can
// assert its shape.
package paperexp

import (
	"context"
	"fmt"
	"sort"
	"strings"
)

// Result is one regenerated table or figure.
type Result struct {
	ID     string
	Title  string
	Slides string // slide range in the paper
	Text   string // the rendered artifact
	// Series carries the raw numbers behind the artifact, keyed by a
	// short name, for programmatic assertions.
	Series map[string][]float64
	// Notes documents substitutions and caveats.
	Notes string
}

// Entry registers one experiment driver. Run receives the caller's
// context: drivers thread it into harness execution, so cancellation
// reaches the executor (and, under the scheduler, the worker pool).
type Entry struct {
	ID    string
	Title string
	Run   func(ctx context.Context) (*Result, error)
}

// Registry lists every experiment in paper order.
func Registry() []Entry {
	return []Entry{
		{"t1", "server vs client time and output destination (Q1/Q16)", RunT1},
		{"t2", "hot vs cold runs, user vs real time (Q1)", RunT2},
		{"f1", "DBG/OPT relative execution time across 22 queries", RunF1},
		{"f2", "the memory wall: scan cost across machine generations", RunF2},
		{"f3", "profile breakdown of Q1: tuple-at-a-time vs column-at-a-time", RunF3},
		{"t3", "factor interaction example", RunT3},
		{"t4", "2^2 design: memory and cache effects on MIPS", RunT4},
		{"t5", "allocation of variation: networks x address patterns", RunT5},
		{"t6", "2^(7-4) fractional factorial sign table", RunT6},
		{"t7", "confounding: D=ABC versus D=AB", RunT7},
		{"f4", "chart guideline violations", RunF4},
		{"f5", "confidence intervals and histogram cell sizes", RunF5},
		{"f6", "pictorial games: truncated axes and gnuplot sizing", RunF6},
		{"t8", "automatic graph generation with gnuplot", RunT8},
		{"t9", "the locale hazard: 13.666 becomes 13666", RunT9},
		{"t10", "specifying hardware environments", RunT10},
		{"f7", "SIGMOD 2008 repeatability outcomes", RunF7},
	}
}

// Run executes the experiment with the given id under ctx.
func Run(ctx context.Context, id string) (*Result, error) {
	id = strings.ToLower(strings.TrimSpace(id))
	for _, e := range Registry() {
		if e.ID == id {
			return e.Run(ctx)
		}
	}
	ids := make([]string, 0, len(Registry()))
	for _, e := range Registry() {
		ids = append(ids, e.ID)
	}
	sort.Strings(ids)
	return nil, fmt.Errorf("paperexp: unknown experiment %q (have %s)", id, strings.Join(ids, ", "))
}
