package paperexp

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"testing"

	"repro/internal/stats"
)

func TestRegistryAndRun(t *testing.T) {
	reg := Registry()
	if len(reg) != 17 {
		t.Fatalf("registry has %d experiments, want 17", len(reg))
	}
	seen := map[string]bool{}
	for _, e := range reg {
		if e.ID == "" || e.Title == "" || e.Run == nil {
			t.Errorf("incomplete entry %+v", e)
		}
		if seen[e.ID] {
			t.Errorf("duplicate id %q", e.ID)
		}
		seen[e.ID] = true
	}
	if _, err := Run(context.Background(), "nope"); err == nil {
		t.Error("unknown id should error")
	}
	r, err := Run(context.Background(), "T4") // case-insensitive
	if err != nil || r.ID != "t4" {
		t.Errorf("Run(T4) = %v, %v", r, err)
	}
}

// firstRuns runs every artifact once per test binary. TestRunAllProduceText
// checks these results and TestDeterminism compares them with a second
// run, so each artifact runs two times, not three.
var firstRuns = sync.OnceValues(func() ([]*Result, error) {
	var rs []*Result
	for _, e := range Registry() {
		r, err := e.Run(context.Background())
		if err != nil {
			return nil, fmt.Errorf("%s: %w", e.ID, err)
		}
		rs = append(rs, r)
	}
	return rs, nil
})

func TestRunAllProduceText(t *testing.T) {
	rs, err := firstRuns()
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range rs {
		if len(r.Text) < 50 {
			t.Errorf("%s: artifact too short (%d bytes)", r.ID, len(r.Text))
		}
		if r.Slides == "" {
			t.Errorf("%s: no slide reference", r.ID)
		}
		if len(r.Series) == 0 {
			t.Errorf("%s: no raw series", r.ID)
		}
	}
}

// TestT1Shape: terminal output costs much more than file output for the
// large result, almost nothing for the small one; server real >= server
// user.
func TestT1Shape(t *testing.T) {
	r, err := RunT1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for _, q := range []string{"q1", "q16"} {
		row := r.Series[q]
		// row: server user, server real, client file real, client term real, bytes
		if len(row) != 5 {
			t.Fatalf("%s row = %v", q, row)
		}
		user, serverReal, clientFile, clientTerm := row[0], row[1], row[2], row[3]
		if !(user <= serverReal && serverReal <= clientFile && clientFile <= clientTerm) {
			t.Errorf("%s: time ordering violated: %v", q, row)
		}
	}
	q1, q16 := r.Series["q1"], r.Series["q16"]
	if q16[4] <= q1[4]*10 {
		t.Errorf("Q16 result (%g B) should dwarf Q1 result (%g B)", q16[4], q1[4])
	}
	// Terminal penalty relative to file output: large for Q16, small for Q1.
	penalty16 := (q16[3] - q16[2]) / q16[2]
	penalty1 := (q1[3] - q1[2]) / q1[2]
	if penalty16 < 5*penalty1 {
		t.Errorf("terminal penalty: q16 %.3f should dwarf q1 %.3f", penalty16, penalty1)
	}
}

// TestT2Shape: cold real >> cold user; hot real == hot user; hot beats cold.
func TestT2Shape(t *testing.T) {
	r, err := RunT2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cold, hot := r.Series["cold"], r.Series["hot"]
	if cold[1] < 2*cold[0] {
		t.Errorf("cold real %.1f should be a multiple of cold user %.1f", cold[1], cold[0])
	}
	if hot[1] != hot[0] {
		t.Errorf("hot real %.1f should equal hot user %.1f", hot[1], hot[0])
	}
	if cold[1] <= hot[1] {
		t.Errorf("cold real %.1f should exceed hot real %.1f", cold[1], hot[1])
	}
}

// TestF1Shape: every DBG/OPT ratio is > 1 and within the paper's observed
// band; ratios vary across queries.
func TestF1Shape(t *testing.T) {
	r, err := RunF1(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	ratios := r.Series["ratio"]
	if len(ratios) != 22 {
		t.Fatalf("ratios = %d, want 22", len(ratios))
	}
	for i, v := range ratios {
		if v < 1.05 || v > 2.5 {
			t.Errorf("Q%d ratio %.2f outside (1.05, 2.5)", i+1, v)
		}
	}
	if stats.Max(ratios)-stats.Min(ratios) < 0.1 {
		t.Errorf("ratios too uniform (%.2f..%.2f); overheads should be query-dependent",
			stats.Min(ratios), stats.Max(ratios))
	}
}

// TestF2Shape: the memory wall — CPU component collapses across
// generations, total does not, memory dominates at the end.
func TestF2Shape(t *testing.T) {
	r, err := RunF2(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	cpu, mem, engine := r.Series["cpu"], r.Series["mem"], r.Series["engine"]
	if len(cpu) != 5 || len(mem) != 5 || len(engine) != 5 {
		t.Fatalf("series lengths: %d %d %d", len(cpu), len(mem), len(engine))
	}
	if cpu[0]/cpu[4] < 5 {
		t.Errorf("CPU component should improve >=5x, got %.1fx", cpu[0]/cpu[4])
	}
	total0, total4 := cpu[0]+mem[0], cpu[4]+mem[4]
	if total0/total4 > 4 {
		t.Errorf("total improved %.1fx: too much for a memory wall", total0/total4)
	}
	if mem[4] < cpu[4] {
		t.Errorf("memory (%.1f) should dominate CPU (%.1f) on the 2000 machine", mem[4], cpu[4])
	}
	// The full-engine measurement shows the same flatness.
	if engine[0]/engine[4] > 6 {
		t.Errorf("engine measurement improved %.1fx; wall missing", engine[0]/engine[4])
	}
}

// TestF3Shape: the tuple-at-a-time engine is slower on the same plan.
func TestF3Shape(t *testing.T) {
	r, err := RunF3(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	row := r.Series["tuple-at-a-time"][0]
	col := r.Series["column-at-a-time"][0]
	if row <= col {
		t.Errorf("tuple-at-a-time total %.0f should exceed column-at-a-time %.0f", row, col)
	}
	if !strings.Contains(r.Text, "GroupBy") {
		t.Error("profile should show the GroupBy operator")
	}
}

// TestT4PinsPaperNumbers: q0=40, qA=20, qB=10, qAB=5.
func TestT4PinsPaperNumbers(t *testing.T) {
	r, err := RunT4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	q := r.Series["q"]
	want := []float64{40, 20, 10, 5}
	for i := range want {
		if q[i] != want[i] {
			t.Errorf("q[%d] = %g, want %g", i, q[i], want[i])
		}
	}
	if !strings.Contains(r.Text, "y = 40 + 20*xA + 10*xB + 5*xA*xB") {
		t.Errorf("model string missing:\n%s", r.Text)
	}
}

// TestT5PinsPaperPercentages: published variation-explained table.
func TestT5PinsPaperPercentages(t *testing.T) {
	r, err := RunT5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := map[string][3]float64{
		"paper-T": {17.2, 77.0, 5.8},
		"paper-N": {20, 80, 0},
		"paper-R": {10.9, 87.8, 1.3},
	}
	for k, w := range want {
		got := r.Series[k]
		for i := range w {
			if diff := got[i] - w[i]; diff > 0.1 || diff < -0.1 {
				t.Errorf("%s[%d] = %.1f, want %.1f", k, i, got[i], w[i])
			}
		}
	}
	// Live simulation: pattern dominates for throughput.
	live := r.Series["live-T"]
	if !(live[1] > live[0] && live[1] > 50) {
		t.Errorf("live throughput: pattern should dominate, got qA=%.1f qB=%.1f", live[0], live[1])
	}
	if !strings.Contains(r.Text, "the address pattern influences most") {
		t.Error("conclusion missing")
	}
}

func TestT6Shape(t *testing.T) {
	r, err := RunT6(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, s := range r.Series["column-sums"] {
		if s != 0 {
			t.Errorf("column %c sums to %g, want 0", 'A'+i, s)
		}
	}
	if r.Series["runs"][0] != 8 {
		t.Errorf("runs = %g", r.Series["runs"][0])
	}
}

func TestT7Shape(t *testing.T) {
	r, err := RunT7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	res := r.Series["resolution"]
	if res[0] != 4 || res[1] != 3 {
		t.Errorf("resolutions = %v, want [4 3]", res)
	}
	for _, want := range []string{"I = ABCD", "A = BCD", "sparsity of effects", "D=ABC"} {
		if !strings.Contains(r.Text, want) {
			t.Errorf("text missing %q", want)
		}
	}
}

func TestF4Shape(t *testing.T) {
	r, err := RunF4(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	counts := r.Series["violations"]
	if len(counts) != 5 {
		t.Fatalf("violation groups = %d", len(counts))
	}
	for i := 0; i < 4; i++ {
		if counts[i] == 0 {
			t.Errorf("bad chart %d produced no violations", i)
		}
	}
	if counts[4] != 0 {
		t.Errorf("good chart produced %g violations", counts[4])
	}
}

func TestF5Shape(t *testing.T) {
	r, err := RunF5(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "indifferent") {
		t.Error("overlapping alternatives should be indifferent")
	}
	if !strings.Contains(r.Text, "A lower") {
		t.Error("disjoint alternatives should decide")
	}
	fine, coarse := r.Series["fine"], r.Series["coarse"]
	if len(fine) <= len(coarse) {
		t.Errorf("coarsening should reduce bins: %d -> %d", len(fine), len(coarse))
	}
	for _, c := range coarse {
		if c < 5 {
			t.Errorf("coarse bin %g below 5-point rule", c)
		}
	}
}

func TestT9Shape(t *testing.T) {
	r, err := RunT9(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	m := r.Series["mangled"]
	if m[0] != 13666 || m[2] != 123333 {
		t.Errorf("mangled = %v", m)
	}
	if r.Series["hazards"][0] != 2 {
		t.Errorf("hazards = %g, want 2", r.Series["hazards"][0])
	}
}

func TestT10Shape(t *testing.T) {
	r, err := RunT10(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	levels := r.Series["levels"]
	if levels[0] != 0 || levels[1] != 1 || levels[2] != 2 {
		t.Errorf("classified levels = %v, want under/right/over", levels)
	}
	if r.Series["rated-hz"][0] != 1.5e9 {
		t.Errorf("rated clock = %g", r.Series["rated-hz"][0])
	}
}

func TestF7Shape(t *testing.T) {
	r, err := RunF7(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(r.Text, "436 submissions") || !strings.Contains(r.Text, "298 papers") {
		t.Error("headline numbers missing")
	}
	if len(r.Series) != 3 {
		t.Errorf("charts = %d", len(r.Series))
	}
}

func TestPaperSuite(t *testing.T) {
	s := PaperSuite()
	if err := s.Validate(); err != nil {
		t.Fatalf("paper suite invalid: %v", err)
	}
	if len(s.Experiments) != len(Registry()) {
		t.Errorf("suite covers %d of %d experiments", len(s.Experiments), len(Registry()))
	}
	doc := s.Instructions()
	if !strings.Contains(doc, "perfeval run t1") || !strings.Contains(doc, "go build ./...") {
		t.Error("instructions incomplete")
	}
}

// TestDeterminism: every driver produces byte-identical output across runs
// — the repository applies the paper's repeatability principle to itself.
func TestDeterminism(t *testing.T) {
	first, err := firstRuns()
	if err != nil {
		t.Fatal(err)
	}
	for i, e := range Registry() {
		a := first[i]
		b, err := e.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", e.ID, err)
		}
		if a.Text != b.Text {
			t.Errorf("%s: output differs between runs", e.ID)
		}
	}
}
