package collector_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// benchSetup starts a one-shard daemon behind httptest, acquires a
// lease, and pre-builds total normalized records to ingest under it.
func benchSetup(b *testing.B, binary bool, total int) (*client.Client, string, []runstore.Record) {
	srv, err := collector.New(collector.Config{Dir: b.TempDir(), Shards: 1})
	if err != nil {
		b.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	b.Cleanup(func() {
		hs.Close()
		srv.Close()
	})

	c := client.New(hs.URL, nil)
	c.SetBinary(binary)
	grant, err := c.Acquire(context.Background(), "bench", "bench ingest")
	if err != nil {
		b.Fatal(err)
	}
	recs := make([]runstore.Record, 0, total)
	for i := 0; i < total; i++ {
		rec, err := runstore.NormalizeAppend(runstore.Record{
			Experiment: "bench ingest",
			Row:        i,
			Replicate:  0,
			Assignment: map[string]string{"cell": fmt.Sprintf("c%06d", i)},
			Responses:  map[string]float64{"ms": float64(i%97) + 0.5},
		})
		if err != nil {
			b.Fatal(err)
		}
		recs = append(recs, rec)
	}
	return c, grant.Lease, recs
}

// benchIngest streams 10^4 pre-built records through the real HTTP
// ingest path in 256-record batches under one lease — the collector
// half of the codec claim. The JSON/binary pair isolates the wire
// framing: everything else (loopback TCP, admission, shard append,
// fsync cadence) is identical.
func benchIngest(b *testing.B, binary bool) {
	const total, batch = 10_000, 256
	c, lease, recs := benchSetup(b, binary, total)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for off := 0; off < total; off += batch {
			end := min(off+batch, total)
			if err := c.Ingest(ctx, lease, recs[off:end]); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(total), "records/op")
}

func BenchmarkIngestJSON(b *testing.B)   { benchIngest(b, false) }
func BenchmarkIngestBinary(b *testing.B) { benchIngest(b, true) }

// BenchmarkIngestLone is the latency of one lone ingest: sequential
// one-record requests, each waiting for the last one's 200, which is
// what a shard's single lease holder sends. One op is a loopback round
// trip plus one group commit with nobody to share it.
func BenchmarkIngestLone(b *testing.B) {
	const total = 1_000
	c, lease, recs := benchSetup(b, false, total)
	ctx := context.Background()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		k := i % total
		if err := c.Ingest(ctx, lease, recs[k:k+1]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkFleetCollect is the end-to-end benchmark's fleet-collect
// journey at package level (bench/, which this repository's gate runs,
// is the measurement of record; this is the before/after one can take
// with `go test -bench`): a daemon on loopback with 2 shards, two
// client.Workers of one scheduler worker each executing 300 cells × 10
// replicates behind a ≈5 µs runner — spool, ingest, lease hand-off, the
// wait for "complete" — then the collect: Merge of the shard stores and
// Compact of the result. exec-ms is the first half, collect-ms the
// second.
func BenchmarkFleetCollect(b *testing.B) {
	const cells, reps, shards = 300, 10, 2
	levels := make([]string, cells)
	index := make(map[string]int, cells)
	for i := range levels {
		levels[i] = fmt.Sprintf("c%05d", i)
		index[levels[i]] = i
	}
	f, err := design.NewFactor("cell", levels...)
	if err != nil {
		b.Fatal(err)
	}
	d, err := design.Simple([]design.Factor{f})
	if err != nil {
		b.Fatal(err)
	}
	d.Replicates = reps
	exp := &harness.Experiment{Name: "journey", Design: d, Responses: []string{"ms", "io"},
		Run: func(a design.Assignment, rep int) (map[string]float64, error) {
			cell := index[a["cell"]]
			acc := float64(cell + rep)
			for i := 0; i < 2500; i++ { // ≈5 µs
				acc = acc*0.999 + 0.001
			}
			runtime.KeepAlive(acc)
			return map[string]float64{"ms": 5 + float64(cell*reps+rep)/1000, "io": float64(100 + cell%900)}, nil
		}}

	var exec, collect time.Duration
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		dir := b.TempDir()
		srv, err := collector.New(collector.Config{Dir: filepath.Join(dir, "collector"), Shards: shards, Metrics: obs.NewRegistry()})
		if err != nil {
			b.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		creg := obs.NewRegistry()
		workers := make([]*client.Worker, shards)
		for k := range workers {
			workers[k], err = client.NewWorker(client.Options{
				URL: hs.URL, Worker: fmt.Sprintf("worker-%d", k), Workers: 1,
				SpoolDir: filepath.Join(dir, fmt.Sprintf("spool-%d", k)), Metrics: creg,
				AcquireWait: 10 * time.Millisecond,
			})
			if err != nil {
				b.Fatal(err)
			}
		}
		canon := filepath.Join(dir, "canonical.jsonl")
		b.StartTimer()

		start := time.Now()
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for k, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				_, errs[k] = w.Execute(context.Background(), exp)
			}()
		}
		wg.Wait()
		executed := time.Now()
		for _, err := range errs {
			if err != nil {
				b.Fatal(err)
			}
		}
		ms, err := runstore.Merge(shardstore.Paths(filepath.Join(dir, "collector"), exp.Name, shards), canon)
		if err != nil {
			b.Fatal(err)
		}
		cs, err := runstore.Compact(canon, "")
		if err != nil {
			b.Fatal(err)
		}
		exec += executed.Sub(start)
		collect += time.Since(executed)

		b.StopTimer()
		if ms.Kept != cells*reps || cs.Kept != cells*reps || cs.Dropped != 0 {
			b.Fatalf("merge kept %d, compact kept %d and dropped %d; want %d, %d, 0", ms.Kept, cs.Kept, cs.Dropped, cells*reps, cells*reps)
		}
		hs.Close()
		if err := srv.Close(); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
	}
	b.ReportMetric(float64(exec.Microseconds())/1000/float64(b.N), "exec-ms")
	b.ReportMetric(float64(collect.Microseconds())/1000/float64(b.N), "collect-ms")
}
