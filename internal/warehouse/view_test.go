package warehouse

import (
	"fmt"
	"path/filepath"
	"reflect"
	"slices"
	"testing"
	"time"

	"repro/internal/runstore"
)

// TestQueryViewFollowsPut changes the index between queries in every way
// there is — a Put of a new run, a Put that replaces one, a Refresh and a
// Prune — and checks that the next query answers from the changed index,
// judged against the index's runs read without the view. A view taken
// before a change is the same after it: the view is read-only, and a Put
// replaces it rather than editing it.
func TestQueryViewFollowsPut(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	writeRun := func(name string, mod time.Duration, ms float64) {
		writeJournal(t, filepath.Join(root, name), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": ms}),
			mkRec("e", cell, 1, map[string]float64{"ms": ms + 1}),
		}, baseTime.Add(mod))
	}
	handRun := func(mod time.Duration, mean float64) Run {
		return Run{Path: "hand.jsonl", ModTimeNS: baseTime.Add(mod).UnixNano(), Format: "journal", Records: 2, Cells: []Cell{{
			Experiment: "e", Hash: runstore.AssignmentHash(cell), Assignment: cell, Response: "ms", N: 2, Mean: mean, Variance: 0.5,
		}}}
	}
	writeRun("r0.jsonl", 0, 10)
	writeRun("r1.jsonl", time.Second, 20)
	w := refreshed(t, root)
	reqs := []Request{
		{Kind: KindHistory, Cell: "f=x"}, {Kind: KindHistory, Cell: runstore.AssignmentHash(cell), Limit: 2},
		{Kind: KindRegressions}, {Kind: KindRegressions, Cell: "f=x", Response: "ms"},
	}

	type taken struct{ view, was []heldRun }
	var views []taken
	check := func(step string, wantPaths ...string) {
		t.Helper()
		// The index's runs, read from its map rather than from the view.
		indexed := slices.DeleteFunc(w.idx.Runs(), func(r Run) bool { return r.Pruned })
		if got := w.Runs(); !reflect.DeepEqual(got, indexed) {
			t.Fatalf("%s: Runs = %+v, want the index's %+v", step, got, indexed)
		}
		res, err := w.Query(Request{Kind: KindRuns})
		if err != nil {
			t.Fatal(err)
		}
		var paths []string
		for _, r := range res.Runs {
			paths = append(paths, r.Path)
		}
		if !slices.Equal(paths, wantPaths) {
			t.Fatalf("%s: runs query lists %v, want %v", step, paths, wantPaths)
		}
		for _, req := range reqs {
			want, _ := referenceQuery(indexed, req)
			if got, err := w.Query(req); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: Query(%+v) = %+v, %v; want %+v", step, req, got, err, want)
			}
		}
		for i, v := range views {
			if !reflect.DeepEqual(v.view, v.was) {
				t.Fatalf("%s: the view taken after step %d changed under its reader", step, i)
			}
		}
		view := w.liveRuns()
		if again := w.liveRuns(); len(view) > 0 && &again[0] != &view[0] {
			t.Fatalf("%s: two queries with no Put between them read two views", step)
		}
		views = append(views, taken{view, slices.Clone(view)})
	}

	check("refreshed", "r0.jsonl", "r1.jsonl")
	if err := w.idx.Put(handRun(5*time.Second, 30)); err != nil {
		t.Fatal(err)
	}
	check("a new run put", "r0.jsonl", "r1.jsonl", "hand.jsonl")
	if err := w.idx.Put(handRun(-time.Second, 99)); err != nil { // now the oldest
		t.Fatal(err)
	}
	check("a run replaced", "hand.jsonl", "r0.jsonl", "r1.jsonl")
	writeRun("r2.jsonl", 2*time.Second, 40)
	if rs, err := w.Refresh(); err != nil || rs.Ingested != 1 {
		t.Fatalf("Refresh = %+v, %v; want 1 ingested", rs, err)
	}
	check("refreshed again", "hand.jsonl", "r0.jsonl", "r1.jsonl", "r2.jsonl")
	if ps, err := w.Prune(Retention{KeepRuns: 2}); err != nil || ps.Pruned != 2 {
		t.Fatalf("Prune = %+v, %v; want 2 pruned", ps, err)
	}
	check("pruned", "r1.jsonl", "r2.jsonl")
}

// allocRun is a hand-built run of benchCells design cells × two responses,
// in ingest's order, so the index holds it seekable.
func allocRun(i int) Run {
	r := Run{Path: fmt.Sprintf("run-%03d.jsonl", i), ModTimeNS: baseTime.Add(time.Duration(i) * time.Hour).UnixNano(), Format: "journal", Records: benchCells}
	for c := 0; c < benchCells; c++ {
		a := map[string]string{"cell": fmt.Sprintf("c%05d", c)}
		for _, resp := range []string{"io", "ms"} {
			r.Cells = append(r.Cells, Cell{
				Experiment: "journey", Hash: runstore.AssignmentHash(a), Assignment: a,
				Response: resp, N: benchReps, Mean: float64(c + i), Variance: 1,
			})
		}
	}
	return r
}

// TestHistoryQueryAllocs holds a selector history query to what it
// answers with: the Result and its points, however many runs the index
// holds. It fails when a query rebuilds the run list (a copy, a sort and a
// filter per query) or grows its points from empty, which cost 8
// allocations at 25 runs and more at 50. Not parallel: allocations are
// counted process-wide.
func TestHistoryQueryAllocs(t *testing.T) {
	points := func(res *Result) int { return len(res.History) }
	if at25, at50 := queryAllocs(t, 25, benchHistory, points), queryAllocs(t, 50, benchHistory, points); at25 != at50 || at50 > 2 {
		t.Errorf("a history query allocates %v times over 25 runs and %v over 50, want the same and at most 2", at25, at50)
	}
}

// TestRunsAndTrendsQueryAllocs holds the runs and trends listings to what
// they answer with: a trends query allocates as much over 50 runs as over
// 25, a runs query one Experiments slice more per run. Both built a map
// per run before (71 and 32 allocations at 25 runs), and grew their
// answers from empty. Not parallel: allocations are counted process-wide.
func TestRunsAndTrendsQueryAllocs(t *testing.T) {
	for _, tc := range []struct {
		req    Request
		perRun float64
		points func(*Result) int
	}{
		{Request{Kind: KindTrends}, 0, func(res *Result) int {
			if len(res.Trends) != 2 { // allocRun's two responses
				return 0
			}
			return len(res.Trends[0].Points)
		}},
		{Request{Kind: KindRuns}, 1, func(res *Result) int { return len(res.Runs) }},
	} {
		if at25, at50 := queryAllocs(t, 25, tc.req, tc.points), queryAllocs(t, 50, tc.req, tc.points); at50-at25 != 25*tc.perRun {
			t.Errorf("a %s query allocates %v times over 25 runs and %v over 50, want %v more per run", tc.req.Kind, at25, at50, tc.perRun)
		}
	}
}

// queryAllocs counts the allocations of one req query over an index of
// runs allocRuns. points says how many runs an answer covers: the first
// must cover every one.
func queryAllocs(t *testing.T, runs int, req Request, points func(*Result) int) float64 {
	t.Helper()
	w := openTest(t, t.TempDir())
	batch := make([]Run, runs)
	for i := range batch {
		batch[i] = allocRun(i)
	}
	if err := w.idx.Put(batch...); err != nil {
		t.Fatal(err)
	}
	if res, err := w.Query(req); err != nil || points(res) != runs {
		t.Fatalf("%s query over %d runs = %+v, %v", req.Kind, runs, res, err)
	}
	return testing.AllocsPerRun(100, func() {
		if _, err := w.Query(req); err != nil {
			t.Fatal(err)
		}
	})
}
