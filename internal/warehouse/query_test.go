package warehouse

import (
	"fmt"
	"math"
	"path/filepath"
	"slices"
	"strings"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// seedHistory writes three runs of one cell with tight, well-separated
// samples: means 10, 10.1 (overlapping), then 20 (disjoint, higher).
func seedHistory(t *testing.T, root string) (cellHash string) {
	t.Helper()
	cell := map[string]string{"f": "x"}
	samples := [][]float64{
		{9.9, 10.0, 10.1},
		{10.0, 10.1, 10.2},
		{19.9, 20.0, 20.1},
	}
	for i, vals := range samples {
		var recs []runstore.Record
		for rep, v := range vals {
			recs = append(recs, mkRec("e", cell, rep, map[string]float64{"ms": v}))
		}
		writeJournal(t, filepath.Join(root, []string{"r0.jsonl", "r1.jsonl", "r2.jsonl"}[i]), recs, baseTime.Add(time.Duration(i)*time.Second))
	}
	return runstore.AssignmentHash(cell)
}

func refreshed(t *testing.T, root string) *Warehouse {
	t.Helper()
	w := openTest(t, root)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	return w
}

func TestQueryHistory(t *testing.T) {
	root := t.TempDir()
	hash := seedHistory(t, root)
	w := refreshed(t, root)

	res, err := w.Query(Request{Kind: KindHistory, Experiment: "e", Cell: hash, Response: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 3 {
		t.Fatalf("history = %d points, want 3", len(res.History))
	}
	wantMeans := []float64{10, 10.1, 20}
	for i, p := range res.History {
		if p.Mean != wantMeans[i] {
			t.Fatalf("point %d mean = %g, want %g", i, p.Mean, wantMeans[i])
		}
		if p.N != 3 || p.Lo >= p.Mean || p.Hi <= p.Mean || p.Confidence != 0.95 {
			t.Fatalf("point %d interval malformed: %+v", i, p)
		}
	}
	// The canonical assignment string selects the same cell.
	byString, err := w.Query(Request{Kind: KindHistory, Cell: "f=x"})
	if err != nil {
		t.Fatal(err)
	}
	if len(byString.History) != 3 {
		t.Fatalf("history by assignment string = %d points, want 3", len(byString.History))
	}
	// Limit keeps the newest points.
	limited, err := w.Query(Request{Kind: KindHistory, Cell: hash, Limit: 2})
	if err != nil {
		t.Fatal(err)
	}
	if len(limited.History) != 2 || limited.History[1].Mean != 20 {
		t.Fatalf("limited history = %+v, want the newest 2 points", limited.History)
	}
	if !strings.Contains(res.String(), "cell history: 3 points") {
		t.Fatalf("history render:\n%s", res.String())
	}
}

// TestQueryHistorySpansExperiments pins what Request.Experiment says: a
// history query needs a cell and nothing else, and without an experiment it
// lists the cell under every experiment that has it — each experiment's
// points oldest first within a run-ordered listing.
func TestQueryHistorySpansExperiments(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	for i, name := range []string{"r0.jsonl", "r1.jsonl"} {
		writeJournal(t, filepath.Join(root, name), []runstore.Record{
			mkRec("e1", cell, 0, map[string]float64{"ms": float64(10 + i)}),
			mkRec("e2", cell, 0, map[string]float64{"ms": float64(20 + i)}),
			mkRec("e2", map[string]string{"f": "y"}, 0, map[string]float64{"ms": 99}),
		}, baseTime.Add(time.Duration(i)*time.Second))
	}
	w := refreshed(t, root)
	for _, sel := range []string{"f=x", runstore.AssignmentHash(cell)} {
		res, err := w.Query(Request{Kind: KindHistory, Cell: sel})
		if err != nil {
			t.Fatal(err)
		}
		var got []string
		for _, p := range res.History {
			got = append(got, fmt.Sprintf("%s/%s=%g", p.Run, p.Experiment, p.Mean))
		}
		want := []string{"r0.jsonl/e1=10", "r0.jsonl/e2=20", "r1.jsonl/e1=11", "r1.jsonl/e2=21"}
		if !slices.Equal(got, want) {
			t.Errorf("history of %q without an experiment = %v, want both experiments' histories %v", sel, got, want)
		}
		one, err := w.Query(Request{Kind: KindHistory, Cell: sel, Experiment: "e2"})
		if err != nil || len(one.History) != 2 || one.History[0].Mean != 20 || one.History[1].Mean != 21 {
			t.Errorf("history of %q in e2 = %+v, %v", sel, one, err)
		}
	}
}

func TestQueryRuns(t *testing.T) {
	root := t.TempDir()
	seedHistory(t, root)
	writeJournal(t, filepath.Join(root, "other.jsonl"), []runstore.Record{
		mkRec("other", map[string]string{"f": "y"}, 0, map[string]float64{"ms": 1}),
	}, baseTime.Add(time.Hour))
	w := refreshed(t, root)

	res, err := w.Query(Request{Kind: KindRuns})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 4 {
		t.Fatalf("runs = %d, want 4", len(res.Runs))
	}
	// The experiment filter drops runs without a matching cell.
	res, err = w.Query(Request{Kind: KindRuns, Experiment: "other"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Runs) != 1 || res.Runs[0].Path != "other.jsonl" || res.Runs[0].Experiments[0] != "other" {
		t.Fatalf("filtered runs = %+v", res.Runs)
	}
	// An empty Kind defaults to the runs listing.
	res, err = w.Query(Request{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Kind != KindRuns || len(res.Runs) != 4 {
		t.Fatalf("default query = %+v", res)
	}
}

func TestQueryTrends(t *testing.T) {
	root := t.TempDir()
	seedHistory(t, root)
	w := refreshed(t, root)

	res, err := w.Query(Request{Kind: KindTrends, Experiment: "e", Response: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Trends) != 1 {
		t.Fatalf("trends = %+v, want one line", res.Trends)
	}
	line := res.Trends[0]
	if line.Experiment != "e" || line.Response != "ms" || len(line.Points) != 3 {
		t.Fatalf("trend line = %+v", line)
	}
	wantMeans := []float64{10, 10.1, 20}
	for i, p := range line.Points {
		if p.Mean != wantMeans[i] || p.Cells != 1 {
			t.Fatalf("trend point %d = %+v, want mean %g over 1 cell", i, p, wantMeans[i])
		}
	}
}

func TestQueryRegressions(t *testing.T) {
	root := t.TempDir()
	hash := seedHistory(t, root)
	w := refreshed(t, root)

	// Newest pair is r1 (mean 10.1) vs r2 (mean 20): disjoint intervals,
	// higher mean — the gate's regression rule fires.
	res, err := w.Query(Request{Kind: KindRegressions})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 1 {
		t.Fatalf("regressions = %+v, want exactly one", res.Regressions)
	}
	e := res.Regressions[0]
	if e.Hash != hash || e.BaseRun != "r1.jsonl" || e.CurRun != "r2.jsonl" {
		t.Fatalf("regression entry = %+v", e)
	}
	if e.DeltaPct < 95 || e.DeltaPct > 100 {
		t.Fatalf("delta = %g%%, want ~98%%", e.DeltaPct)
	}
	if !strings.Contains(res.String(), "REGRESSED") {
		t.Fatalf("regression render:\n%s", res.String())
	}

	// Retention changes the comparison window: keeping only the newest
	// run leaves no pair to compare, so the listing empties.
	if _, err := w.Prune(Retention{KeepRuns: 1}); err != nil {
		t.Fatal(err)
	}
	res, err = w.Query(Request{Kind: KindRegressions})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("regressions with a single live run = %+v, want none", res.Regressions)
	}
}

func TestQueryOverlappingIsNotRegression(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	for i, base := range []float64{10, 10.05} {
		writeJournal(t, filepath.Join(root, []string{"a.jsonl", "b.jsonl"}[i]), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": base - 0.1}),
			mkRec("e", cell, 1, map[string]float64{"ms": base}),
			mkRec("e", cell, 2, map[string]float64{"ms": base + 0.1}),
		}, baseTime.Add(time.Duration(i)*time.Second))
	}
	w := refreshed(t, root)
	res, err := w.Query(Request{Kind: KindRegressions})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Regressions) != 0 {
		t.Fatalf("overlapping intervals flagged as regression: %+v", res.Regressions)
	}
}

func TestQueryValidation(t *testing.T) {
	w := openTest(t, t.TempDir())
	cases := []Request{
		{Kind: "bogus"},
		{Kind: KindHistory}, // no cell
		{Kind: KindRuns, Confidence: 1.5},
		{Kind: KindRuns, Tolerance: -1},
		{Kind: KindRuns, Limit: -1},
		// NaN compares false with every bound, and +Inf is above every one.
		{Kind: KindRuns, Confidence: math.NaN()},
		{Kind: KindHistory, Cell: "f=x", Confidence: math.NaN()},
		{Kind: KindRuns, Tolerance: math.NaN()},
		{Kind: KindRuns, Tolerance: math.Inf(1)},
	}
	for _, req := range cases {
		if _, err := w.Query(req); err == nil {
			t.Fatalf("Query(%+v) accepted an invalid request", req)
		}
	}
}

func TestQueryMetrics(t *testing.T) {
	root := t.TempDir()
	seedHistory(t, root)
	reg := obs.NewRegistry()
	w, err := Open(root, Options{Metrics: reg, Clock: func() time.Time { return time.Unix(1000, 0) }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Query(Request{Kind: KindRuns}); err != nil {
			t.Fatal(err)
		}
	}
	snap := reg.Snapshot()
	got := make(map[string]float64)
	hist := make(map[string]int64)
	for _, m := range snap.Metrics {
		got[m.Name] = m.Value
		if m.Type == "histogram" {
			hist[m.Name] = m.Count
		}
	}
	if got["warehouse_ingest_runs_total"] != 3 {
		t.Fatalf("ingest_runs = %g, want 3 (snapshot %+v)", got["warehouse_ingest_runs_total"], got)
	}
	if got["warehouse_ingest_records_total"] != 9 {
		t.Fatalf("ingest_records = %g, want 9", got["warehouse_ingest_records_total"])
	}
	if got["warehouse_queries_total"] != 3 {
		t.Fatalf("queries = %g, want 3", got["warehouse_queries_total"])
	}
	if hist["warehouse_open_seconds"] != 1 {
		t.Fatalf("open_seconds count = %d, want 1: one observation per Open", hist["warehouse_open_seconds"])
	}
	if hist["warehouse_query_seconds"] != 3 {
		t.Fatalf("query_seconds count = %d, want 3", hist["warehouse_query_seconds"])
	}
}

// TestHistoryIntervalsMatchGate holds the warehouse to the regression
// gate's interval rule bit for bit: for the same records, a history
// point's interval, rebuilt from the index's stored (n, mean, variance),
// equals runstore.Summary.Intervals' over the values, at N = 1 (the
// tolerance band), 2 and 10 (Student-t).
func TestHistoryIntervalsMatchGate(t *testing.T) {
	root := t.TempDir()
	var recs []runstore.Record
	for _, n := range []int{1, 2, 10} {
		cell := map[string]string{"n": fmt.Sprint(n)}
		for rep := 0; rep < n; rep++ {
			// Values no binary fraction spells, so a different summation
			// order or formula would show in the last bits.
			v := 10.1 + 0.37*float64(rep) + 0.013*float64(rep*rep%7)
			recs = append(recs, mkRec("e", cell, rep, map[string]float64{"ms": v}))
		}
	}
	writeJournal(t, filepath.Join(root, "r0.jsonl"), recs, baseTime)
	w := refreshed(t, root)

	sums := runstore.Summarize(recs)
	if len(sums) != 1 {
		t.Fatalf("%d summaries, want 1", len(sums))
	}
	gate, err := sums[0].Intervals(runstore.GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, n := range []int{1, 2, 10} {
		hash := runstore.AssignmentHash(map[string]string{"n": fmt.Sprint(n)})
		res, err := w.Query(Request{Kind: KindHistory, Experiment: "e", Cell: hash, Response: "ms"})
		if err != nil {
			t.Fatal(err)
		}
		if len(res.History) != 1 {
			t.Fatalf("N=%d: %d history points, want 1", n, len(res.History))
		}
		p, g := res.History[0], gate[hash]["ms"]
		if p.N != n || g.N != n || !same(p.Mean, g.Mean) || !same(p.Lo, g.Lo) || !same(p.Hi, g.Hi) || !same(p.Confidence, g.Confidence) {
			t.Errorf("N=%d: warehouse interval [%v, %v] mean %v conf %v n %d; gate's [%v, %v] mean %v conf %v n %d",
				n, p.Lo, p.Hi, p.Mean, p.Confidence, p.N, g.Lo, g.Hi, g.Mean, g.Confidence, g.N)
		}
	}
}
