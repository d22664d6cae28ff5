package harness

import (
	"context"
	"math"
	"strings"
	"testing"

	"repro/internal/design"
)

func TestValidateRejectsZeroReplicates(t *testing.T) {
	for _, reps := range []int{0, -3} {
		e := paperExperiment(t, reps)
		err := e.Validate()
		if err == nil {
			t.Fatalf("Replicates = %d: Validate should reject", reps)
		}
		if !strings.Contains(err.Error(), "Replicates") {
			t.Errorf("error should name Replicates: %v", err)
		}
		if _, err := Execute(context.Background(), e); err == nil {
			t.Errorf("Replicates = %d: Execute should reject", reps)
		}
	}
}

func TestExecuteRejectsNonFiniteResponses(t *testing.T) {
	cases := []struct {
		name string
		resp map[string]float64
	}{
		{"nil map", nil},
		{"NaN", map[string]float64{"MIPS": math.NaN()}},
		{"+Inf", map[string]float64{"MIPS": math.Inf(1)}},
		{"-Inf", map[string]float64{"MIPS": math.Inf(-1)}},
	}
	for _, c := range cases {
		e := paperExperiment(t, 1)
		e.Run = func(design.Assignment, int) (map[string]float64, error) {
			return c.resp, nil
		}
		if _, err := Execute(context.Background(), e); err == nil {
			t.Errorf("%s: Execute should reject", c.name)
		}
	}
}

// countingExecutor wraps Sequential and counts Execute calls, to prove
// the package-level Execute routes through the context's executor.
type countingExecutor struct {
	calls int
}

func (c *countingExecutor) Execute(ctx context.Context, e *Experiment) (*ResultSet, error) {
	c.calls++
	return Sequential{}.Execute(ctx, e)
}

func TestWithExecutor(t *testing.T) {
	ce := &countingExecutor{}
	ctx := WithExecutor(context.Background(), ce)
	if ExecutorFrom(ctx) != Executor(ce) {
		t.Fatal("ExecutorFrom should return the context's executor")
	}
	rs, err := Execute(ctx, paperExperiment(t, 2))
	if err != nil {
		t.Fatal(err)
	}
	if ce.calls != 1 {
		t.Errorf("context's executor called %d times, want 1", ce.calls)
	}
	if len(rs.Rows) != 4 {
		t.Errorf("rows = %d, want 4", len(rs.Rows))
	}
	// Without one — or with a nil one — the executor is Sequential.
	for _, ctx := range []context.Context{context.Background(), WithExecutor(context.Background(), nil)} {
		if _, ok := ExecutorFrom(ctx).(Sequential); !ok {
			t.Errorf("ExecutorFrom without an executor = %T, want Sequential", ExecutorFrom(ctx))
		}
	}
}
