package collector_test

import (
	"bytes"
	"context"
	"fmt"
	"net/http"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/runstore"
)

// wireRecorder wraps the collector handler and notes the framing each
// data-path exchange actually used: the Content-Type of every ingest
// request and of every snapshot response.
type wireRecorder struct {
	next http.Handler
	mu   sync.Mutex
	in   []string // ingest request Content-Type
	out  []string // snapshot response Content-Type
}

func (w *wireRecorder) ServeHTTP(rw http.ResponseWriter, r *http.Request) {
	if r.URL.Path == collector.PathIngest {
		w.mu.Lock()
		w.in = append(w.in, r.Header.Get("Content-Type"))
		w.mu.Unlock()
	}
	w.next.ServeHTTP(rw, r)
	if r.URL.Path == collector.PathSnapshot {
		w.mu.Lock()
		w.out = append(w.out, rw.Header().Get("Content-Type"))
		w.mu.Unlock()
	}
}

// TestBinaryWireNegotiation drives the full client surface with binary
// framing selected and checks both halves of the negotiation: the data
// path really carries runstore.WireBinaryType in both directions, and
// the records round-trip intact through the binary encode/decode pair.
func TestBinaryWireNegotiation(t *testing.T) {
	srv, err := collector.New(collector.Config{Dir: t.TempDir(), Shards: 2})
	if err != nil {
		t.Fatal(err)
	}
	rec := &wireRecorder{next: srv}
	hs := httptest.NewServer(rec)
	defer hs.Close()
	defer srv.Close()

	c := client.New(hs.URL, nil)
	c.SetBinary(true)
	ctx := context.Background()
	const exp = "binary wire exp"

	name, err := c.Register(ctx, "bin-worker")
	if err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, name, exp)
	if err != nil {
		t.Fatal(err)
	}
	recs := []runstore.Record{
		recordForShard(t, exp, grant.Shard, grant.Shards, 0),
		recordForShard(t, exp, grant.Shard, grant.Shards, 1),
	}
	if err := c.Ingest(ctx, grant.Lease, recs); err != nil {
		t.Fatal(err)
	}
	warm, err := c.Snapshot(ctx, grant.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != len(recs) {
		t.Fatalf("snapshot holds %d record(s), want %d", len(warm), len(recs))
	}
	for _, r := range recs {
		norm, _ := runstore.NormalizeAppend(r)
		got, ok := warm[norm.Key()]
		if !ok {
			t.Fatalf("snapshot is missing %s", norm.Key())
		}
		if got.Responses["ms"] != r.Responses["ms"] {
			t.Errorf("record %s responses changed over the binary wire: %v -> %v",
				norm.Key(), r.Responses, got.Responses)
		}
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	if len(rec.in) == 0 || len(rec.out) == 0 {
		t.Fatalf("recorder saw %d ingest(s), %d snapshot(s)", len(rec.in), len(rec.out))
	}
	for _, ct := range rec.in {
		if ct != runstore.WireBinaryType {
			t.Errorf("ingest request Content-Type = %q, want %q", ct, runstore.WireBinaryType)
		}
	}
	for _, ct := range rec.out {
		if ct != runstore.WireBinaryType {
			t.Errorf("snapshot response Content-Type = %q, want %q", ct, runstore.WireBinaryType)
		}
	}
}

// TestJSONWireDefault pins the spec'd fallback: a client that never
// opted into binary framing speaks NDJSON on both data paths, byte for
// byte what docs/COLLECTOR.md promises a minimal implementation.
func TestJSONWireDefault(t *testing.T) {
	srv, err := collector.New(collector.Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	rec := &wireRecorder{next: srv}
	hs := httptest.NewServer(rec)
	defer hs.Close()
	defer srv.Close()

	c := client.New(hs.URL, nil)
	ctx := context.Background()
	const exp = "json wire exp"
	grant, err := c.Acquire(ctx, "json-worker", exp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, grant.Lease, []runstore.Record{
		recordForShard(t, exp, grant.Shard, grant.Shards, 0),
	}); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Snapshot(ctx, grant.Lease); err != nil {
		t.Fatal(err)
	}

	rec.mu.Lock()
	defer rec.mu.Unlock()
	for _, ct := range rec.in {
		if ct != runstore.WireJSONType {
			t.Errorf("ingest request Content-Type = %q, want %q", ct, runstore.WireJSONType)
		}
	}
	for _, ct := range rec.out {
		if ct != runstore.WireJSONType {
			t.Errorf("snapshot response Content-Type = %q, want %q", ct, runstore.WireJSONType)
		}
	}
}

// TestFleetMergeByteIdentityBinaryWire reruns the fleet byte-identity
// acceptance test with every worker on the binary wire: the encoding of
// the transport must leave the stored, merged, compacted journal bytes
// exactly as the single-process JSON run produces them.
func TestFleetMergeByteIdentityBinaryWire(t *testing.T) {
	const reps, shards, fleet = 2, 2, 2
	srvDir := t.TempDir()
	srv, err := collector.New(collector.Config{Dir: srvDir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	var wg sync.WaitGroup
	errs := make([]error, fleet)
	for i := 0; i < fleet; i++ {
		w, err := client.NewWorker(client.Options{
			URL:         hs.URL,
			Worker:      fmt.Sprintf("binfleet-%d", i),
			Workers:     2,
			SpoolDir:    t.TempDir(),
			AcquireWait: 10 * time.Millisecond,
			BinaryWire:  true,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Execute(context.Background(), e2eExperiment(t, reps, nil))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	want := referenceJournal(t, reps)
	got := collectedJournal(t, srvDir, shards)
	if !bytes.Equal(got, want) {
		t.Errorf("binary-wire collected store differs from the single-process journal:\ncollected:\n%s\nreference:\n%s", got, want)
	}
}
