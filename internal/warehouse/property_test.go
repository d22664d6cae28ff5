package warehouse

import (
	"fmt"
	"math"
	"math/rand"
	"path/filepath"
	"reflect"
	"sort"
	"sync"
	"testing"
	"time"

	"repro/internal/runstore"
	"repro/internal/stats"
)

// recomputeCells is the independent oracle: a direct streaming pass
// over one source file via runstore.ScanFile, grouped and aggregated
// the way the index claims to — the property test's ground truth.
func recomputeCells(t *testing.T, abs string) []Cell {
	t.Helper()
	type acc struct {
		cell   Cell
		values map[string][]float64
	}
	cells := make(map[string]*acc)
	var keys []string
	for rec, err := range runstore.ScanFile(abs) {
		if err != nil {
			t.Fatal(err)
		}
		ck := runstore.CellKey(rec.Experiment, rec.Hash)
		a := cells[ck]
		if a == nil {
			a = &acc{
				cell:   Cell{Experiment: rec.Experiment, Hash: rec.Hash, Assignment: rec.Assignment},
				values: make(map[string][]float64),
			}
			cells[ck] = a
			keys = append(keys, ck)
		}
		for resp, v := range rec.Responses {
			a.values[resp] = append(a.values[resp], v)
		}
	}
	var out []Cell
	for _, ck := range keys {
		a := cells[ck]
		var resps []string
		for resp := range a.values {
			resps = append(resps, resp)
		}
		sort.Strings(resps)
		for _, resp := range resps {
			vals := a.values[resp]
			c := a.cell
			c.Response = resp
			c.N = len(vals)
			c.Mean = stats.Mean(vals)
			if len(vals) >= 2 {
				c.Variance = stats.Variance(vals)
			}
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i], out[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if as, bs := assignmentString(a.Assignment), assignmentString(b.Assignment); as != bs {
			return as < bs
		}
		return a.Response < b.Response
	})
	for i := range out {
		out[i].selector = assignmentString(out[i].Assignment) // part of every cell the index holds
	}
	return out
}

// checkAgainstRecompute asserts every live run's indexed aggregates
// equal the oracle's, cell for cell, bit for bit.
func checkAgainstRecompute(t *testing.T, w *Warehouse) {
	t.Helper()
	for _, r := range w.Runs() {
		want := recomputeCells(t, filepath.Join(w.Root(), filepath.FromSlash(r.Path)))
		if !reflect.DeepEqual(r.Cells, want) {
			t.Fatalf("run %s: indexed cells diverge from streaming recompute:\nindex: %+v\nscan:  %+v",
				r.Path, r.Cells, want)
		}
	}
}

// checkIntervalsAgainstMeanCI asserts the query-time CI rebuilt from
// (n, mean, variance) matches stats.MeanCI over the raw values to
// floating-point noise.
func checkIntervalsAgainstMeanCI(t *testing.T, w *Warehouse) {
	t.Helper()
	for _, r := range w.Runs() {
		values := make(map[string][]float64) // (cellkey, resp) -> raw values
		for rec, err := range runstore.ScanFile(filepath.Join(w.Root(), filepath.FromSlash(r.Path))) {
			if err != nil {
				t.Fatal(err)
			}
			for resp, v := range rec.Responses {
				k := runstore.CellKey(rec.Experiment, rec.Hash) + "/" + resp
				values[k] = append(values[k], v)
			}
		}
		for _, c := range r.Cells {
			if c.N < 2 {
				continue
			}
			raw := values[runstore.CellKey(c.Experiment, c.Hash)+"/"+c.Response]
			want, err := stats.MeanCI(raw, 0.95)
			if err != nil {
				t.Fatal(err)
			}
			got := cellInterval(c, 0.95, 0.05)
			for _, pair := range [][2]float64{{got.Lo, want.Lo}, {got.Hi, want.Hi}, {got.Mean, want.Mean}} {
				if diff := math.Abs(pair[0] - pair[1]); diff > 1e-12*math.Max(1, math.Abs(pair[1])) {
					t.Fatalf("run %s cell %s/%s: rebuilt interval %+v != MeanCI %+v",
						r.Path, c.Hash, c.Response, got, want)
				}
			}
		}
	}
}

// TestPropertyIndexEqualsRecompute drives the warehouse through its
// whole life — cold build, incremental re-ingest, new sources, pruning
// — asserting after every step that the index is exactly what a full
// streaming recomputation over the sources would produce. This is the
// claim that makes O(index) queries trustworthy: the index is never
// stale and never wrong.
func TestPropertyIndexEqualsRecompute(t *testing.T) {
	rng := rand.New(rand.NewSource(42))
	root := t.TempDir()
	experiments := []string{"exp0", "exp1"}
	levels := []string{"a", "b", "c"}
	responses := []string{"ms", "bytes"}

	randomRecords := func(n int) []runstore.Record {
		var recs []runstore.Record
		for i := 0; i < n; i++ {
			assign := map[string]string{"f": levels[rng.Intn(len(levels))], "g": fmt.Sprint(rng.Intn(2))}
			resps := map[string]float64{responses[rng.Intn(len(responses))]: rng.NormFloat64()*10 + 100}
			if rng.Intn(2) == 0 {
				resps[responses[rng.Intn(len(responses))]] = rng.Float64() * 1000
			}
			recs = append(recs, mkRec(experiments[rng.Intn(len(experiments))], assign, rng.Intn(5), resps))
		}
		return recs
	}

	// Cold build over a mixed-format directory.
	for i := 0; i < 4; i++ {
		name := fmt.Sprintf("run%d.jsonl", i)
		write := writeJournal
		if i%2 == 1 {
			name = fmt.Sprintf("run%d.binj", i)
			write = writeBinary
		}
		write(t, filepath.Join(root, name), randomRecords(20+rng.Intn(30)), baseTime.Add(time.Duration(i)*time.Second))
	}
	w := openTest(t, root)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	checkAgainstRecompute(t, w)
	checkIntervalsAgainstMeanCI(t, w)

	// Incremental re-ingest: append to an existing source and add a new
	// one; the refresh must pick up exactly those.
	writeJournal(t, filepath.Join(root, "run0.jsonl"), randomRecords(15), baseTime.Add(10*time.Second))
	writeJournal(t, filepath.Join(root, "run9.jsonl"), randomRecords(25), baseTime.Add(11*time.Second))
	rs, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ingested != 2 {
		t.Fatalf("incremental refresh = %+v, want exactly 2 ingested", rs)
	}
	checkAgainstRecompute(t, w)
	checkIntervalsAgainstMeanCI(t, w)

	// Retention: prune to the newest 3, then verify the survivors are
	// exactly the 3 newest and still match the oracle.
	if _, err := w.Prune(Retention{KeepRuns: 3}); err != nil {
		t.Fatal(err)
	}
	live := w.Runs()
	if len(live) != 3 {
		t.Fatalf("live after prune = %d, want 3", len(live))
	}
	for i := 1; i < len(live); i++ {
		if live[i-1].ModTimeNS > live[i].ModTimeNS {
			t.Fatalf("live runs out of order: %+v", live)
		}
	}
	checkAgainstRecompute(t, w)

	// The pruned set must be exactly the expired runs: reopening from
	// the persisted index agrees.
	runs, pruned, torn, err := InspectIndex(filepath.Join(root, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	if runs != 5 || pruned != 2 || torn {
		t.Fatalf("persisted index = (%d runs, %d pruned, torn=%v), want (5, 2, false)", runs, pruned, torn)
	}
}

// TestConcurrentQueryRefresh hammers Query against Refresh and Prune —
// the collector-daemon usage — and is meaningful under -race (make
// check runs it so).
func TestConcurrentQueryRefresh(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	for i := 0; i < 3; i++ {
		writeJournal(t, filepath.Join(root, fmt.Sprintf("r%d.jsonl", i)), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": float64(i)}),
			mkRec("e", cell, 1, map[string]float64{"ms": float64(i) + 1}),
		}, baseTime.Add(time.Duration(i)*time.Second))
	}
	w := openTest(t, root)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 50; i++ {
				if _, err := w.Query(Request{Kind: KindHistory, Cell: runstore.AssignmentHash(cell)}); err != nil {
					t.Error(err)
					return
				}
				if _, err := w.Query(Request{Kind: KindRuns}); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	wg.Add(1)
	go func() {
		defer wg.Done()
		for i := 0; i < 25; i++ {
			if _, err := w.Refresh(); err != nil {
				t.Error(err)
				return
			}
			if _, err := w.Prune(Retention{KeepRuns: 100}); err != nil {
				t.Error(err)
				return
			}
		}
	}()
	wg.Wait()
}
