package warehouse

import (
	"bufio"
	"errors"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
	// Without the archive format registered, a Merge to .arch or .archz
	// silently writes a JSONL journal and the fixture holds the wrong
	// formats.
	_ "repro/internal/runstore/archivestore"
)

// The benchmarks run over the shape of bench/'s warehouse-query workload:
// 25 runs of 100 cells × 10 replicates × 2 responses, rotating through
// the four at-rest formats, the newest run drifted upward on every tenth
// cell so the regression listing has something to list.
const (
	benchRuns  = 25
	benchCells = 100
	benchReps  = 10
)

var benchFormats = []string{".jsonl", ".binj", ".arch", ".archz"}

// benchFixture writes the first runs of them, at reps replicates per cell,
// into a fresh directory and returns it.
func benchFixture(b testing.TB, runs, reps int) string {
	b.Helper()
	dir := b.TempDir()
	for run := 0; run < runs; run++ {
		raw := filepath.Join(dir, ".raw.jsonl")
		f, err := os.Create(raw)
		if err != nil {
			b.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for cell := 0; cell < benchCells; cell++ {
			for rep := 0; rep < reps; rep++ {
				ms := 5 + float64(cell) + 0.01*float64((run*31+cell*17+rep*7)%40)
				if run == benchRuns-1 && cell%10 == 0 {
					ms *= 1.2
				}
				rec, err := runstore.NormalizeAppend(runstore.Record{
					Experiment: "journey",
					Row:        cell,
					Replicate:  rep,
					Assignment: map[string]string{"cell": fmt.Sprintf("c%05d", cell)},
					Responses:  map[string]float64{"ms": ms, "io": float64(100 + (run+cell+rep)%900)},
				})
				if err == nil {
					err = runstore.EncodeWire(w, rec)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := w.Flush(); err != nil {
			b.Fatal(err)
		}
		if err := f.Close(); err != nil {
			b.Fatal(err)
		}
		path := filepath.Join(dir, fmt.Sprintf("run-%03d%s", run, benchFormats[run%len(benchFormats)]))
		if _, err := runstore.Merge([]string{raw}, path); err != nil {
			b.Fatal(err)
		}
		if info, err := runstore.Inspect(path); err != nil || info.Records != benchCells*reps {
			b.Fatalf("fixture %s: %+v, %v", path, info, err)
		}
		mod := baseTime.Add(time.Duration(run) * time.Hour)
		if err := os.Chtimes(path, mod, mod); err != nil {
			b.Fatal(err)
		}
		if err := os.Remove(raw); err != nil {
			b.Fatal(err)
		}
	}
	return dir
}

// benchOpen opens the warehouse over dir the way a process does.
func benchOpen(b *testing.B, dir string) *Warehouse {
	b.Helper()
	w, err := Open(dir, Options{Metrics: obs.NewRegistry()})
	if err != nil {
		b.Fatal(err)
	}
	return w
}

// benchRefreshed returns an open warehouse whose index holds every run.
func benchRefreshed(b *testing.B) *Warehouse {
	b.Helper()
	w := benchOpen(b, benchFixture(b, benchRuns, benchReps))
	b.Cleanup(func() { w.Close() })
	if rs, err := w.Refresh(); err != nil || rs.Ingested != benchRuns || rs.Records != benchRuns*benchCells*benchReps {
		b.Fatalf("Refresh = %+v, %v", rs, err)
	}
	return w
}

var benchHistory = Request{Kind: KindHistory, Experiment: "journey", Response: "ms", Cell: "cell=c00042"}

// BenchmarkWarehouseColdRefresh ingests all 25 sources into an empty
// index: the decode-once, sources-in-parallel path. Beside ns/op it
// reports ns/record, over the 25 000 records a refresh ingests.
func BenchmarkWarehouseColdRefresh(b *testing.B) {
	dir := benchFixture(b, benchRuns, benchReps)
	b.ReportAllocs()
	b.ResetTimer() // the fixture is no part of a refresh
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if err := os.Remove(filepath.Join(dir, IndexFile)); err != nil && !os.IsNotExist(err) {
			b.Fatal(err)
		}
		w := benchOpen(b, dir)
		b.StartTimer()
		rs, err := w.Refresh()
		b.StopTimer()
		if err != nil || rs.Ingested != benchRuns {
			b.Fatalf("Refresh = %+v, %v", rs, err)
		}
		w.Close()
		b.StartTimer()
	}
	reportPerRecord(b, benchRuns*benchCells*benchReps)
}

// reportPerRecord reports the measured time per record, records being
// what one iteration reads.
func reportPerRecord(b *testing.B, records int) {
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*records), "ns/record")
}

// forEachFormat calls fn with one benchCells × reps source per at-rest
// format: the fixture's first four runs.
func forEachFormat(tb testing.TB, reps int, fn func(ext, root, rel string, st os.FileInfo)) {
	tb.Helper()
	root := benchFixture(tb, len(benchFormats), reps)
	for run, ext := range benchFormats {
		rel := fmt.Sprintf("run-%03d%s", run, ext)
		st, err := os.Stat(filepath.Join(root, rel))
		if err != nil {
			tb.Fatal(err)
		}
		fn(ext, root, rel, st)
	}
}

// BenchmarkIngestPerFormat reads one 1 000-record source of each at-rest
// format end to end — what a cold refresh pays per source before it
// writes the index, and where a record built per frame would show first —
// and reports ns/record beside ns/op.
func BenchmarkIngestPerFormat(b *testing.B) {
	forEachFormat(b, benchReps, func(ext, root, rel string, st os.FileInfo) {
		b.Run(ext, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if run, err := ingest(root, rel, st); err != nil || run.Records != benchCells*benchReps {
					b.Fatalf("ingest = %d record(s), %v", run.Records, err)
				}
			}
			reportPerRecord(b, benchCells*benchReps)
		})
	})
}

// BenchmarkIngestReplicateOrder reads one 1 000-record journal whose
// records come cell by cell, each cell's replicates either sorted, as a
// merge or a one-worker scheduler writes them, or shuffled, as several
// workers complete them. The fixture's sources are all merged, and so
// sorted; this is the order a concurrent run's journal has.
func BenchmarkIngestReplicateOrder(b *testing.B) {
	rng := rand.New(rand.NewPCG(1, 2))
	for _, order := range []string{"sorted", "shuffled"} {
		root := b.TempDir()
		f, err := os.Create(filepath.Join(root, "run.jsonl"))
		if err != nil {
			b.Fatal(err)
		}
		w := bufio.NewWriter(f)
		for cell := 0; cell < benchCells; cell++ {
			reps := make([]int, benchReps)
			for rep := range reps {
				reps[rep] = rep
			}
			if order == "shuffled" {
				rng.Shuffle(len(reps), func(i, j int) { reps[i], reps[j] = reps[j], reps[i] })
			}
			for _, rep := range reps {
				rec, err := runstore.NormalizeAppend(runstore.Record{
					Experiment: "journey",
					Row:        cell,
					Replicate:  rep,
					Assignment: map[string]string{"cell": fmt.Sprintf("c%05d", cell)},
					Responses:  map[string]float64{"ms": 5 + float64(cell+rep), "io": float64(100 + rep)},
				})
				if err == nil {
					err = runstore.EncodeWire(w, rec)
				}
				if err != nil {
					b.Fatal(err)
				}
			}
		}
		if err := errors.Join(w.Flush(), f.Close()); err != nil {
			b.Fatal(err)
		}
		st, err := os.Stat(f.Name())
		if err != nil {
			b.Fatal(err)
		}
		b.Run(order, func(b *testing.B) {
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				if run, err := ingest(root, "run.jsonl", st); err != nil || run.Records != benchCells*benchReps {
					b.Fatalf("ingest = %d record(s), %v", run.Records, err)
				}
			}
			reportPerRecord(b, benchCells*benchReps)
		})
	}
}

// TestIngestAllocsPerRecord holds ingest to what it keeps: per cell a key,
// an assignment, a selector and the aggregates, and per record nothing — a
// record's slot and values, and the tables a cell predicts its records
// from, go into a scratch pooled from source to source. So what a source
// allocates does not grow with its records per cell: 100 cells measure 568
// to 580 allocations by format at 10 replicates and 572 to 586 at 40.
// Ingest used to pay 2.9 allocations per record (a value slice per slot,
// and per cell a map of response to a slice of values), and 15 to 20 when
// it built a record per frame. Averaged over many runs because under the
// race detector the pool drops a quarter of what it is handed, and a fresh
// scratch grows with the source.
func TestIngestAllocsPerRecord(t *testing.T) {
	allocs := func(reps int) map[string]float64 {
		per := make(map[string]float64)
		forEachFormat(t, reps, func(ext, root, rel string, st os.FileInfo) {
			per[ext] = testing.AllocsPerRun(20, func() {
				if _, err := ingest(root, rel, st); err != nil {
					t.Fatal(err)
				}
			})
		})
		return per
	}
	ten, forty := allocs(10), allocs(40)
	for _, ext := range benchFormats {
		if math.Abs(forty[ext]-ten[ext]) > 0.1*ten[ext] {
			t.Errorf("%s: ingest of 100 cells allocates %.0f times at 10 replicates and %.0f at 40, want within 10%%", ext, ten[ext], forty[ext])
		}
	}
}

// BenchmarkWarehouseReopen replays the index file of 25 runs: what every
// `perfeval query` and repro.Query pays before it can answer.
func BenchmarkWarehouseReopen(b *testing.B) {
	dir := benchRefreshed(b).Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		benchOpen(b, dir).Close()
	}
}

// BenchmarkWarehouseQueryHistory asks for one cell's history by its
// assignment string: per run, a binary search of the experiment's block of
// cells, which ingest sorted by selector, on the t-quantile lookup the
// warehouse kept from the query before.
func BenchmarkWarehouseQueryHistory(b *testing.B) {
	benchQuery(b, benchHistory, func(res *Result) bool { return len(res.History) == benchRuns })
}

// benchQuery times one query kind over the refreshed fixture, between two
// of which the index does not change.
func benchQuery(b *testing.B, req Request, answered func(*Result) bool) {
	w := benchRefreshed(b)
	if res, err := w.Query(req); err != nil || !answered(res) {
		b.Fatalf("%s = %+v, %v", req.Kind, res, err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := w.Query(req); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkWarehouseQueryRegressions lists every regressed cell.
func BenchmarkWarehouseQueryRegressions(b *testing.B) {
	benchQuery(b, Request{Kind: KindRegressions}, func(res *Result) bool { return len(res.Regressions) > 0 })
}

// BenchmarkWarehouseQueryTrends draws every (experiment, response) line.
func BenchmarkWarehouseQueryTrends(b *testing.B) {
	benchQuery(b, Request{Kind: KindTrends}, func(res *Result) bool { return len(res.Trends) == 2 })
}

// BenchmarkWarehouseQueryRuns lists every run.
func BenchmarkWarehouseQueryRuns(b *testing.B) {
	benchQuery(b, Request{Kind: KindRuns}, func(res *Result) bool { return len(res.Runs) == benchRuns })
}

// BenchmarkWarehouseQueryOneShot is the CLI's shape: open, refresh (every
// source skipped on a stat), one history query, close.
func BenchmarkWarehouseQueryOneShot(b *testing.B) {
	dir := benchRefreshed(b).Root()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w := benchOpen(b, dir)
		if rs, err := w.Refresh(); err != nil || rs.Unchanged != benchRuns {
			b.Fatalf("Refresh = %+v, %v", rs, err)
		}
		if res, err := w.Query(benchHistory); err != nil || len(res.History) != benchRuns {
			b.Fatalf("history = %+v, %v", res, err)
		}
		w.Close()
	}
}
