package collector_test

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/runstore"
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
