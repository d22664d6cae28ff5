package adaptive

import (
	"math"
	"strings"
	"testing"

	"repro/internal/runstore"
)

func observeReps(c *Controller, key string, values ...float64) {
	for rep, v := range values {
		c.Observe(key, rep, map[string]float64{"ms": v})
	}
}

func TestOptionsValidation(t *testing.T) {
	if _, err := New(Options{}); err != nil {
		t.Errorf("zero options should take defaults: %v", err)
	}
	for _, bad := range []Options{
		{Rel: -1},
		{Rel: math.NaN()}, // compares false with everything, so only a negated check catches it
		{Rel: math.Inf(1)},
		{Rel: math.Inf(-1)},
		{Min: -2},
		{Min: 10, Max: 3},
	} {
		if _, err := New(bad); err == nil {
			t.Errorf("New(%+v) should error", bad)
		}
	}
}

// TestStoppingRule walks one cell through the sequential analysis: the
// min phase is unconditional, then a tight sample stops at min while a
// noisy one keeps going until the budget is exhausted.
func TestStoppingRule(t *testing.T) {
	c, err := New(Options{Rel: 0.05, Min: 3, Max: 6})
	if err != nil {
		t.Fatal(err)
	}

	// Cold cell: first batch is the minimum.
	if got := c.Target("e/tight", 0); got != 3 {
		t.Errorf("initial target = %d, want Min=3", got)
	}
	// Tight sample: ±0.1 around 100 is far inside the 5% target.
	observeReps(c, "e/tight", 100, 100.1, 99.9)
	if got := c.Target("e/tight", 3); got != 3 {
		t.Errorf("tight cell target = %d, want stop at 3", got)
	}
	if msg := c.Explain("e/tight"); !strings.Contains(msg, "≤") || !strings.Contains(msg, "3 reps") {
		t.Errorf("Explain = %q, want a precision-reached account", msg)
	}

	// Noisy sample: alternating 50/150 never reaches ±5%; one more at a
	// time until Max, then a forced stop.
	noisy := []float64{50, 150, 50, 150, 50, 150}
	for n := 0; n < len(noisy); n++ {
		c.Observe("e/noisy", n, map[string]float64{"ms": noisy[n]})
		want := n + 2 // one more
		if n+1 < 3 {
			want = 3 // min phase
		}
		if n+1 >= 6 {
			want = n + 1 // budget exhausted
		}
		if got := c.Target("e/noisy", n+1); got != want {
			t.Errorf("noisy cell after %d reps: target = %d, want %d", n+1, got, want)
		}
	}
	if msg := c.Explain("e/noisy"); !strings.Contains(msg, "max budget") {
		t.Errorf("Explain = %q, want a max-budget account", msg)
	}
}

// TestMinEqualsMax pins the fixed-budget degenerate case the
// equivalence test relies on: min=max=R always targets exactly R.
func TestMinEqualsMax(t *testing.T) {
	c, err := New(Options{Min: 4, Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	if got := c.Target("e/c", 0); got != 4 {
		t.Errorf("initial target = %d, want 4", got)
	}
	observeReps(c, "e/c", 10, 999, 10, 999) // precision irrelevant
	if got := c.Target("e/c", 4); got != 4 {
		t.Errorf("target after 4 = %d, want 4 (stop)", got)
	}
}

// TestWorstResponseGoverns: with several responses, the noisiest one
// drives the stopping rule.
func TestWorstResponseGoverns(t *testing.T) {
	c, err := New(Options{Rel: 0.05, Min: 2, Max: 10})
	if err != nil {
		t.Fatal(err)
	}
	for rep := 0; rep < 2; rep++ {
		c.Observe("e/c", rep, map[string]float64{
			"stable": 100 + 0.01*float64(rep),
			"noisy":  100 + 50*float64(rep),
		})
	}
	if got := c.Target("e/c", 2); got != 3 {
		t.Errorf("target = %d, want 3 (noisy response not yet precise)", got)
	}
}

// TestZeroMeanConservative: a zero-mean response with spread can never
// claim relative precision; the cell must run to Max, not stop early.
func TestZeroMeanConservative(t *testing.T) {
	c, err := New(Options{Rel: 0.05, Min: 2, Max: 4})
	if err != nil {
		t.Fatal(err)
	}
	vals := []float64{-1, 1, -1, 1}
	for rep, v := range vals {
		c.Observe("e/z", rep, map[string]float64{"delta": v})
	}
	if got := c.Target("e/z", 4); got != 4 {
		t.Errorf("target = %d, want forced stop at Max=4", got)
	}
	if msg := c.Explain("e/z"); !strings.Contains(msg, "max budget") {
		t.Errorf("Explain = %q, want max-budget stop", msg)
	}
	if math.IsNaN(math.Inf(1)) {
		t.Fatal("unreachable")
	}
}

// TestPrioritizeAndBaselineDrift: explicit flags and mid-run baseline
// drift both tighten the target and raise scheduling priority.
func TestPrioritizeAndBaselineDrift(t *testing.T) {
	base := &runstore.Summary{
		Experiment: "e",
		Rows: []runstore.SummaryRow{{
			Hash:       runstore.AssignmentHash(map[string]string{"f": "x"}),
			Assignment: map[string]string{"f": "x"},
			Response:   "ms",
			Values:     []float64{10, 10.1, 9.9},
		}},
	}
	c, err := New(Options{Rel: 0.10, Min: 3, Max: 20})
	if err != nil {
		t.Fatal(err)
	}
	if err := c.AddBaseline(base); err != nil {
		t.Fatal(err)
	}
	key := runstore.CellKey("e", runstore.AssignmentHash(map[string]string{"f": "x"}))

	// The running cell is 50% slower than baseline with a spread giving
	// ~±7% precision: intervals are disjoint, the cell must get flagged
	// and held to the tight target (5%) — so it keeps going where an
	// unflagged cell would already have stopped.
	observeReps(c, key, 15, 15.45, 15.9)
	if got := c.Target(key, 3); got != 4 {
		t.Errorf("drifted cell target = %d, want 4 (tight target not met)", got)
	}
	if !c.Priority(key) || !c.Priority(key) {
		t.Error("drifted cell should be flagged and prioritized")
	}
	if msg := c.Explain(key); !strings.Contains(msg, "gate-flagged") {
		t.Errorf("Explain = %q, want gate-flagged marker", msg)
	}

	// An unflagged control cell with the same spread stops immediately.
	c2, err := New(Options{Rel: 0.10, Min: 3, Max: 20})
	if err != nil {
		t.Fatal(err)
	}
	observeReps(c2, "e/ctl", 15, 15.45, 15.9)
	if got := c2.Target("e/ctl", 3); got != 3 {
		t.Errorf("control cell target = %d, want stop at 3", got)
	}

	// A cell without a baseline entry is never drift-flagged.
	observeReps(c, "e/other", 5, 5.1, 5.2)
	c.Target("e/other", 3)
	if c.Priority("e/other") {
		t.Error("cell without a baseline entry must not be flagged")
	}

	// Explicit prioritization.
	c.Prioritize("e/manual")
	if !c.Priority("e/manual") {
		t.Error("Prioritize should raise Priority")
	}
}
