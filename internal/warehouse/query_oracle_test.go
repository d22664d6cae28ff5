package warehouse

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"slices"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/design"
	"repro/internal/runstore"
)

// oracleRequests is every question worth asking of a warehouse whose
// cells answer to selectors: each kind that has a reference, under every
// combination of experiment, response and cell filter (present, absent,
// matching nothing), and — filters drawn at random — every limit that
// cuts, one that does not, and an explicit confidence and tolerance.
func oracleRequests(rng *rand.Rand, experiments, responses, selectors []string) []Request {
	experiments = append([]string{"", "no-such-experiment"}, experiments...)
	responses = append([]string{"", "no-such-response"}, responses...)
	var reqs []Request
	for _, kind := range []string{KindHistory, KindRegressions} {
		cells := append([]string{"no-such-cell"}, selectors...)
		if kind != KindHistory { // which refuses to go without; TestQueryValidation covers that
			cells = append(cells, "")
		}
		for _, exp := range experiments {
			for _, resp := range responses {
				for _, sel := range cells {
					reqs = append(reqs, Request{Kind: kind, Experiment: exp, Response: resp, Cell: sel})
				}
			}
		}
		for i := 0; i < 24; i++ {
			req := Request{Kind: kind, Limit: []int{1, 2, 3, 1000}[i%4]}
			req.Experiment = experiments[rng.Intn(len(experiments))]
			req.Response = responses[rng.Intn(len(responses))]
			req.Cell = cells[rng.Intn(len(cells))]
			if i%3 == 0 {
				req.Confidence, req.Tolerance = 0.8, 0.5
			}
			reqs = append(reqs, req)
		}
	}
	return reqs
}

// checkQueriesAgainstReference holds Query to the linear reference
// functions over the warehouse's live runs, answer for answer.
func checkQueriesAgainstReference(t *testing.T, w *Warehouse, reqs []Request) {
	t.Helper()
	live := w.Runs()
	for _, req := range reqs {
		want, wantErr := referenceQuery(live, req)
		got, err := w.Query(req)
		if (err != nil) != (wantErr != nil) {
			t.Fatalf("Query(%+v) error = %v, reference error = %v", req, err, wantErr)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%+v) diverges from the linear reference:\n got %+v\nwant %+v", req, got, want)
		}
	}
}

// TestQueryEqualsReferenceOverRandomIndexes puts random runs straight into
// the index — so cells can be what no ingest builds but a hand-edited or
// older index may hold — and asks everything. Half the runs are in the
// order ingest leaves cells in, most with every hash derived from its
// assignment, which the index holds seekable: history requests by
// selector seek those, beside runs scanned for the same request, in which
// the selector may be another cell's stored hash.
func TestQueryEqualsReferenceOverRandomIndexes(t *testing.T) {
	t.Parallel()
	experiments := []string{"e0", "e1"}
	responses := []string{"io", "ms"}
	assignments := []map[string]string{{"f": "a"}, {"f": "b"}, {"f": "a", "g": "1"}, {}, nil}
	// A selector pool in which one string is one cell's assignment string
	// and another cell's stored hash.
	selectors := []string{"f=a", "f=b", "f=a g=1", "not-derived"}
	for _, a := range assignments {
		selectors = append(selectors, runstore.AssignmentHash(a))
	}
	for seed := int64(0); seed < 8; seed++ {
		rng := rand.New(rand.NewSource(seed))
		w := openTest(t, t.TempDir())
		put := func(r Run) {
			t.Helper()
			if err := w.idx.Put(r); err != nil {
				t.Fatal(err)
			}
		}
		randomRun := func(path string) Run {
			r := Run{Path: path, ModTimeNS: int64(rng.Intn(6)), IngestTimeNS: rng.Int63(), Format: "journal", Records: rng.Intn(50)}
			for i, n := 0, rng.Intn(12); i < n; i++ {
				a := assignments[rng.Intn(len(assignments))]
				c := Cell{
					Experiment: experiments[rng.Intn(len(experiments))],
					Hash:       runstore.AssignmentHash(a),
					Assignment: a,
					Response:   responses[rng.Intn(len(responses))],
					N:          1 + rng.Intn(4),
					Mean:       float64(rng.Intn(5)) * 10, // zero means and equal means happen
				}
				if rng.Intn(4) == 0 {
					// A stored hash that is not the assignment's: sometimes
					// another cell's assignment string.
					c.Hash = selectors[rng.Intn(len(selectors))]
				}
				if c.N >= 2 {
					c.Variance = rng.Float64() * 4
				}
				r.Cells = append(r.Cells, c) // unsorted, duplicates included
			}
			return r
		}
		// sortedRun is randomRun as ingest would order it, hashes derived,
		// sorted here by the assignment string the reference matches on.
		sortedRun := func(path string) Run {
			r := randomRun(path)
			for i := range r.Cells {
				r.Cells[i].Hash = runstore.AssignmentHash(r.Cells[i].Assignment)
			}
			slices.SortStableFunc(r.Cells, func(a, b Cell) int {
				return cmp.Or(strings.Compare(a.Experiment, b.Experiment),
					strings.Compare(design.Assignment(a.Assignment).String(), design.Assignment(b.Assignment).String()),
					strings.Compare(a.Response, b.Response))
			})
			return r
		}
		for i := 0; i < 8; i++ {
			path := fmt.Sprintf("run-%d.jsonl", rng.Intn(6)) // paths repeat: re-ingests
			if rng.Intn(2) == 0 {
				r := sortedRun(path)
				// Sometimes a stored hash is another cell's assignment
				// string, which a selector request must still match: the
				// run is in order, and scanned.
				hashSelects := len(r.Cells) > 0 && rng.Intn(3) == 0
				if hashSelects {
					r.Cells[rng.Intn(len(r.Cells))].Hash = selectors[rng.Intn(3)]
				}
				put(r)
				if w.idx.seekable[path] == hashSelects {
					t.Fatalf("run with a hash containing '=' %v is held seekable %v: %+v", hashSelects, w.idx.seekable[path], r)
				}
			} else {
				put(randomRun(path))
			}
			if rng.Intn(3) == 0 {
				checkQueriesAgainstReference(t, w, oracleRequests(rng, experiments, responses, selectors))
			}
			if rng.Intn(4) == 0 {
				if _, err := w.Prune(Retention{KeepRuns: 1 + rng.Intn(4)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		checkQueriesAgainstReference(t, w, oracleRequests(rng, experiments, responses, selectors))
	}
}

// TestQueryFollowsRefreshAndPrune interleaves queries with everything that
// changes the index — new sources, rewritten sources, pruning, a pruned
// source re-ingested after it changed — over real store files. A run that
// was replaced or dropped is never answered from, nor are the assignment
// strings rendered for it.
func TestQueryFollowsRefreshAndPrune(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	rng := rand.New(rand.NewSource(11))
	w := openTest(t, root)
	levels := []string{"a", "b", "c"}
	var selectors []string
	for _, l := range levels {
		selectors = append(selectors, "f="+l, runstore.AssignmentHash(map[string]string{"f": l}))
	}
	reqs := oracleRequests(rng, []string{"e0", "e1"}, []string{"io", "ms"}, selectors)
	tick := baseTime
	writeRun := func(name string) {
		t.Helper()
		var recs []runstore.Record
		for i, n := 0, 5+rng.Intn(20); i < n; i++ {
			resps := map[string]float64{"ms": rng.NormFloat64() + float64(10*rng.Intn(3))}
			if rng.Intn(2) == 0 {
				resps["io"] = float64(rng.Intn(100))
			}
			recs = append(recs, mkRec([]string{"e0", "e1"}[rng.Intn(2)], map[string]string{"f": levels[rng.Intn(3)]}, rng.Intn(3), resps))
		}
		tick = tick.Add(time.Second)
		os.Remove(filepath.Join(root, name))
		writeJournal(t, filepath.Join(root, name), recs, tick)
	}
	check := func() {
		t.Helper()
		checkQueriesAgainstReference(t, w, reqs)
	}
	refresh := func(wantIngested int) {
		t.Helper()
		if rs, err := w.Refresh(); err != nil || rs.Ingested != wantIngested {
			t.Fatalf("Refresh = %+v, %v; want %d ingested", rs, err, wantIngested)
		}
	}

	check() // an empty warehouse answers too
	for i := 0; i < 4; i++ {
		writeRun(fmt.Sprintf("run%d.jsonl", i))
	}
	refresh(4)
	check()
	check() // nothing changed
	refresh(0)
	check()

	writeRun("run1.jsonl") // rewritten: now the newest run
	writeRun("run9.jsonl")
	refresh(2)
	check()

	if ps, err := w.Prune(Retention{KeepRuns: 3}); err != nil || ps.Pruned != 2 {
		t.Fatalf("Prune = %+v, %v; want 2 pruned", ps, err)
	}
	check()
	if res, err := w.Query(Request{Kind: KindRuns}); err != nil || len(res.Runs) != 3 {
		t.Fatalf("runs after prune = %+v, %v; want 3", res, err)
	}
	if ps, err := w.Prune(Retention{KeepRuns: 3}); err != nil || ps.Pruned != 0 {
		t.Fatalf("second Prune = %+v, %v; want nothing pruned", ps, err)
	}
	check()

	writeRun("run0.jsonl") // a pruned source changes: it comes back
	refresh(1)
	check()
	if res, err := w.Query(Request{Kind: KindRuns}); err != nil || len(res.Runs) != 4 {
		t.Fatalf("runs after the pruned source changed = %+v, %v; want 4", res, err)
	}
}

// TestConcurrentQueriesAndIndexChanges drives every query kind against
// refreshes that really ingest and prunes that really drop — runs and the
// strings rendered for them are replaced under the readers — and is
// meaningful under -race.
// Whatever interleaving ran, the warehouse ends up answering like the
// reference.
func TestConcurrentQueriesAndIndexChanges(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	hash := runstore.AssignmentHash(cell)
	writeRun := func(i int) {
		writeJournal(t, filepath.Join(root, fmt.Sprintf("r%02d.jsonl", i)), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": float64(i)}),
			mkRec("e", cell, 1, map[string]float64{"ms": float64(i) + 1}),
		}, baseTime.Add(time.Duration(i)*time.Second))
	}
	writeRun(0)
	w := refreshed(t, root)
	reqs := []Request{
		{Kind: KindHistory, Cell: hash}, {Kind: KindHistory, Cell: "f=x", Limit: 2},
		{Kind: KindRuns}, {Kind: KindTrends}, {Kind: KindRegressions}, {Kind: KindRegressions, Cell: "f=x"},
	}
	var wg sync.WaitGroup
	stop := make(chan struct{})
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; ; i++ {
				select {
				case <-stop:
					return
				default:
				}
				res, err := w.Query(reqs[(g+i)%len(reqs)])
				if err != nil {
					t.Error(err)
					return
				}
				for j := 1; j < len(res.History); j++ {
					if res.History[j-1].ModTimeNS > res.History[j].ModTimeNS {
						t.Errorf("history out of run order: %+v", res.History)
						return
					}
				}
			}
		}()
	}
	for i := 1; i <= 12; i++ {
		writeRun(i)
		if rs, err := w.Refresh(); err != nil || rs.Ingested != 1 {
			t.Errorf("Refresh = %+v, %v", rs, err)
		}
		if i%4 == 0 {
			if _, err := w.Prune(Retention{KeepRuns: 5}); err != nil {
				t.Error(err)
			}
		}
	}
	close(stop)
	wg.Wait()
	checkQueriesAgainstReference(t, w, slices.DeleteFunc(reqs, func(r Request) bool { return r.Kind == KindRuns || r.Kind == KindTrends }))
	if res, err := w.Query(Request{Kind: KindHistory, Cell: hash}); err != nil || len(res.History) != 5 {
		t.Fatalf("history after the last prune = %+v, %v; want the 5 kept runs", res, err)
	}
}

// TestSelectorHistorySeeks fails when a history query naming its cell by
// selector reads every cell of the runs ingest built, rather than seeking
// the order ingest left them in; a query naming the cell by hash scans, and
// both answer like the reference.
func TestSelectorHistorySeeks(t *testing.T) {
	root := t.TempDir()
	const levels = 40
	for run := 0; run < 3; run++ {
		var recs []runstore.Record
		for _, exp := range []string{"e0", "e1"} {
			for l := 0; l < levels; l++ {
				for rep := 0; rep < 2; rep++ {
					recs = append(recs, mkRec(exp, map[string]string{"f": fmt.Sprintf("l%02d", l)}, rep,
						map[string]float64{"ms": float64(run + l + rep), "io": float64(l)}))
				}
			}
		}
		writeJournal(t, filepath.Join(root, fmt.Sprintf("run%d.jsonl", run)), recs, baseTime.Add(time.Duration(run)*time.Second))
	}
	w := refreshed(t, root)
	total := 0
	for _, r := range w.liveRuns() {
		if !r.seekable {
			t.Fatalf("ingested run %s is not seekable", r.Path)
		}
		total += len(r.Cells)
	}
	hash := runstore.AssignmentHash(map[string]string{"f": "l17"})
	for _, req := range []Request{
		{Kind: KindHistory, Cell: "f=l17"},
		{Kind: KindHistory, Cell: "f=l17", Experiment: "e1"},
		{Kind: KindHistory, Cell: "f=l17", Experiment: "e0", Response: "ms", Limit: 2},
		{Kind: KindHistory, Cell: hash},
	} {
		reads := countHistoryReads(t)
		checkQueriesAgainstReference(t, w, []Request{req})
		if req.Cell == hash {
			if *reads != total {
				t.Errorf("history by hash read %d of %d cells, want a scan of all", *reads, total)
			}
			continue
		}
		// A few binary-search probes per experiment block and the span found.
		if *reads >= total/4 {
			t.Errorf("history %+v read %d of %d cells, want a seek", req, *reads, total)
		}
	}
}
