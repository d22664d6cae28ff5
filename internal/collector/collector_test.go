// Package collector_test exercises the collector daemon end to end
// over real HTTP (httptest.Server) — under `go test -race` this is the
// CI smoke test of the whole control plane: leases, warm-start
// snapshots, ingest validation, backpressure, and the status surface.
package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"net/url"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// fakeClock drives lease expiry deterministically.
type fakeClock struct {
	mu  sync.Mutex
	now time.Time
}

func newFakeClock() *fakeClock { return &fakeClock{now: time.Unix(1_000_000, 0)} }

func (c *fakeClock) Now() time.Time {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.now
}

func (c *fakeClock) Advance(d time.Duration) {
	c.mu.Lock()
	c.now = c.now.Add(d)
	c.mu.Unlock()
}

// startServer builds a collector on a temp dir and serves it over HTTP.
func startServer(t *testing.T, mutate func(*collector.Config)) (*httptest.Server, *client.Client) {
	t.Helper()
	cfg := collector.Config{Dir: t.TempDir(), Shards: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := collector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() {
		hs.Close()
		srv.Close()
	})
	return hs, client.New(hs.URL, nil)
}

// testRecord builds a valid record whose assignment routes wherever its
// seed routes; use recordForShard to pin the shard.
func testRecord(experiment string, seed, rep int) runstore.Record {
	return runstore.Record{
		Experiment: experiment,
		Row:        seed,
		Replicate:  rep,
		Assignment: map[string]string{"x": fmt.Sprintf("v%d", seed)},
		Responses:  map[string]float64{"ms": float64(10*seed + rep)},
	}
}

// recordForShard finds a record routed to the wanted shard.
func recordForShard(t *testing.T, experiment string, shard, shards, rep int) runstore.Record {
	t.Helper()
	for seed := 0; seed < 1000; seed++ {
		rec := testRecord(experiment, seed, rep)
		if runstore.ShardIndex(runstore.AssignmentHash(rec.Assignment), shards) == shard {
			return rec
		}
	}
	t.Fatal("no assignment routes to the wanted shard")
	return runstore.Record{}
}

func TestLeaseLifecycle(t *testing.T) {
	_, c := startServer(t, nil)
	ctx := context.Background()
	const exp = "lease exp"

	name, err := c.Register(ctx, "")
	if err != nil || name == "" {
		t.Fatalf("register: %q, %v", name, err)
	}

	// Two shards, two leases; a third worker finds everything busy.
	g1, err := c.Acquire(ctx, name, exp)
	if err != nil {
		t.Fatal(err)
	}
	g2, err := c.Acquire(ctx, "other", exp)
	if err != nil {
		t.Fatal(err)
	}
	if g1.Shards != 2 || g2.Shards != 2 || g1.Shard == g2.Shard {
		t.Fatalf("grants %+v / %+v, want the two distinct shards", g1, g2)
	}
	if _, err := c.Acquire(ctx, "third", exp); !errors.Is(err, client.ErrBusy) {
		t.Fatalf("third acquire = %v, want ErrBusy", err)
	}

	// Stream two records into g1's shard; the snapshot serves them back.
	recs := []runstore.Record{
		recordForShard(t, exp, g1.Shard, 2, 0),
		recordForShard(t, exp, g1.Shard, 2, 1),
	}
	if err := c.Ingest(ctx, g1.Lease, recs); err != nil {
		t.Fatal(err)
	}
	warm, err := c.Snapshot(ctx, g1.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 2 {
		t.Fatalf("snapshot holds %d record(s), want 2", len(warm))
	}
	for _, rec := range recs {
		norm, _ := runstore.NormalizeAppend(rec)
		if _, ok := warm[norm.Key()]; !ok {
			t.Errorf("snapshot is missing %s", norm.Key())
		}
	}

	// Renew keeps the lease; releasing both shards completes the
	// experiment and acquire drains workers with ErrComplete.
	if err := c.Renew(ctx, g1.Lease); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, g1.Lease, true); err != nil {
		t.Fatal(err)
	}
	if err := c.Release(ctx, g2.Lease, true); err != nil {
		t.Fatal(err)
	}
	if _, err := c.Acquire(ctx, name, exp); !errors.Is(err, client.ErrComplete) {
		t.Fatalf("acquire after completion = %v, want ErrComplete", err)
	}

	// Status reflects the drained pool.
	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Experiments) != 1 || st.Experiments[0].Done != 2 || st.Experiments[0].Records != 2 {
		t.Errorf("status = %+v, want 2 shards done, 2 records", st.Experiments)
	}
}

// TestSnapshotServesOnlyItsShard fills every shard of an experiment,
// then checks that each lease's snapshot streams exactly its own shard's
// records: the snapshot reads the leased shard's journal and nothing
// else.
func TestSnapshotServesOnlyItsShard(t *testing.T) {
	const shards, perShard = 3, 2
	_, c := startServer(t, func(cfg *collector.Config) { cfg.Shards = shards })
	ctx := context.Background()
	const exp = "snapshot exp"

	grants := make([]*collector.AcquireResponse, shards)
	want := make([]map[string]bool, shards)
	for i := range grants {
		g, err := c.Acquire(ctx, fmt.Sprintf("w%d", i), exp)
		if err != nil {
			t.Fatal(err)
		}
		grants[g.Shard] = g
	}
	for k, g := range grants {
		if g == nil {
			t.Fatalf("no lease on shard %d", k)
		}
		want[k] = map[string]bool{}
		var recs []runstore.Record
		for rep := 0; rep < perShard; rep++ {
			rec := recordForShard(t, exp, k, shards, rep)
			norm, _ := runstore.NormalizeAppend(rec)
			want[k][norm.Key()] = true
			recs = append(recs, rec)
		}
		if err := c.Ingest(ctx, g.Lease, recs); err != nil {
			t.Fatal(err)
		}
	}
	for k, g := range grants {
		warm, err := c.Snapshot(ctx, g.Lease)
		if err != nil {
			t.Fatal(err)
		}
		if len(warm) != len(want[k]) {
			t.Errorf("shard %d snapshot holds %d record(s), want %d", k, len(warm), len(want[k]))
		}
		for key := range warm {
			if !want[k][key] {
				t.Errorf("shard %d snapshot serves %s, which shard %d does not hold", k, key, k)
			}
		}
	}
}

func TestLeaseExpiryHandsShardOverWarm(t *testing.T) {
	clock := newFakeClock()
	_, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.LeaseTTL = 30 * time.Second
		cfg.Clock = clock.Now
	})
	ctx := context.Background()
	const exp = "expiry exp"

	g1, err := c.Acquire(ctx, "doomed", exp)
	if err != nil {
		t.Fatal(err)
	}
	recs := []runstore.Record{
		recordForShard(t, exp, 0, 1, 0),
		recordForShard(t, exp, 0, 1, 1),
	}
	if err := c.Ingest(ctx, g1.Lease, recs); err != nil {
		t.Fatal(err)
	}

	// The worker goes silent; its lease expires and the shard returns to
	// the pool.
	clock.Advance(31 * time.Second)
	g2, err := c.Acquire(ctx, "survivor", exp)
	if err != nil {
		t.Fatalf("acquire after expiry: %v", err)
	}
	if g2.Shard != g1.Shard {
		t.Fatalf("survivor got shard %d, want the expired shard %d", g2.Shard, g1.Shard)
	}

	// The survivor warm-starts from everything the dead worker streamed.
	warm, err := c.Snapshot(ctx, g2.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 2 {
		t.Errorf("warm snapshot holds %d record(s), want the dead worker's 2", len(warm))
	}

	// The dead worker's lease is gone for every verb.
	if err := c.Renew(ctx, g1.Lease); !errors.Is(err, client.ErrLeaseLost) {
		t.Errorf("renew of expired lease = %v, want ErrLeaseLost", err)
	}
	if err := c.Ingest(ctx, g1.Lease, recs); !errors.Is(err, client.ErrLeaseLost) {
		t.Errorf("ingest on expired lease = %v, want ErrLeaseLost", err)
	}
	if err := c.Release(ctx, g1.Lease, true); !errors.Is(err, client.ErrLeaseLost) {
		t.Errorf("release of expired lease = %v, want ErrLeaseLost", err)
	}
}

func TestIngestRejectsForeignRecords(t *testing.T) {
	_, c := startServer(t, nil)
	ctx := context.Background()
	const exp = "conflict exp"

	g, err := c.Acquire(ctx, "w", exp)
	if err != nil {
		t.Fatal(err)
	}

	// A record routed to the other shard is a worker sharding bug: 409.
	other := recordForShard(t, exp, 1-g.Shard, 2, 0)
	if err := c.Ingest(ctx, g.Lease, []runstore.Record{other}); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("wrong-shard ingest = %v, want ErrConflict", err)
	}

	// A record from another experiment is 409 too.
	foreign := recordForShard(t, exp, g.Shard, 2, 0)
	foreign.Experiment = "someone else"
	if err := c.Ingest(ctx, g.Lease, []runstore.Record{foreign}); !errors.Is(err, client.ErrConflict) {
		t.Fatalf("foreign-experiment ingest = %v, want ErrConflict", err)
	}

	// The refused batch appended nothing.
	warm, err := c.Snapshot(ctx, g.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 0 {
		t.Errorf("refused batches left %d record(s) behind", len(warm))
	}
}

// TestIngestBackpressure pins the backpressure contract: while one
// admitted request holds the experiment's in-flight byte budget, the
// next ingest gets 429 with a Retry-After hint, and succeeds once the
// budget frees.
func TestIngestBackpressure(t *testing.T) {
	hs, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.MaxInflight = 64
	})
	ctx := context.Background()
	const exp = "busy exp"

	g, err := c.Acquire(ctx, "w", exp)
	if err != nil {
		t.Fatal(err)
	}
	rec := recordForShard(t, exp, 0, 1, 0)
	var line bytes.Buffer
	if err := runstore.EncodeWire(&line, rec); err != nil {
		t.Fatal(err)
	}

	// Request A: admitted, then stalls with its body half-sent, pinning
	// the in-flight budget.
	pr, pw := iopipe()
	defer pw.Close() // unwedge the held handler on any failure path
	reqA, err := http.NewRequest(http.MethodPost, hs.URL+collector.PathIngest+"?lease="+g.Lease, pr)
	if err != nil {
		t.Fatal(err)
	}
	reqA.ContentLength = int64(line.Len())
	doneA := make(chan error, 1)
	go func() {
		resp, err := http.DefaultClient.Do(reqA)
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode != http.StatusOK {
				err = fmt.Errorf("request A status %s", resp.Status)
			}
		}
		doneA <- err
	}()

	// Wait until A is admitted (its bytes show as in-flight).
	deadline := time.Now().Add(5 * time.Second)
	for {
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if len(st.Experiments) == 1 && st.Experiments[0].InflightBytes > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("request A was never admitted")
		}
		time.Sleep(5 * time.Millisecond)
	}

	// Request B: the declared size would overflow MaxInflight → 429 (the
	// body is never read, so filler bytes suffice).
	reqB, err := http.NewRequest(http.MethodPost, hs.URL+collector.PathIngest+"?lease="+g.Lease,
		bytes.NewReader(bytes.Repeat([]byte("x"), 60)))
	if err != nil {
		t.Fatal(err)
	}
	respB, err := http.DefaultClient.Do(reqB)
	if err != nil {
		t.Fatal(err)
	}
	respB.Body.Close()
	if respB.StatusCode != http.StatusTooManyRequests {
		t.Fatalf("overflowing ingest status = %s, want 429", respB.Status)
	}
	if respB.Header.Get("Retry-After") == "" {
		t.Error("429 response carries no Retry-After hint")
	}

	// A finishes; the budget frees; the same batch is now admitted.
	if _, err := pw.Write(line.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	for { // the budget is released just after A's response is written
		st, err := c.Status(ctx)
		if err != nil {
			t.Fatal(err)
		}
		if st.Experiments[0].InflightBytes == 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("in-flight budget never freed")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if err := c.Ingest(ctx, g.Lease, []runstore.Record{rec}); err != nil {
		t.Fatalf("ingest after the budget freed: %v", err)
	}
}

func TestStatusCellsAndGate(t *testing.T) {
	baseDir := t.TempDir()
	const exp = "gate exp"

	// Baseline journal: one cell at 10ms across two replicates.
	base, err := runstore.OpenDir(baseDir, exp)
	if err != nil {
		t.Fatal(err)
	}
	slowCell := recordForShard(t, exp, 0, 1, 0)
	for rep := 0; rep < 2; rep++ {
		rec := slowCell
		rec.Replicate = rep
		rec.Responses = map[string]float64{"ms": 10 + float64(rep)*0.1}
		if err := base.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	base.Close()

	hs, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.Baseline = base.Path()
	})
	ctx := context.Background()
	g, err := c.Acquire(ctx, "w", exp)
	if err != nil {
		t.Fatal(err)
	}
	// Current run: the same cell, twice as slow — a regression.
	var cur []runstore.Record
	for rep := 0; rep < 2; rep++ {
		rec := slowCell
		rec.Replicate = rep
		rec.Responses = map[string]float64{"ms": 20 + float64(rep)*0.1}
		cur = append(cur, rec)
	}
	if err := c.Ingest(ctx, g.Lease, cur); err != nil {
		t.Fatal(err)
	}

	var cells collector.CellsResponse
	getJSON(t, hs.URL+collector.PathCells+"?experiment="+urlQueryEscape(exp), &cells)
	if cells.Records != 2 || len(cells.Cells) != 1 || cells.Cells[0].Replicates != 2 {
		t.Errorf("cells = %+v, want one cell with 2 replicates", cells)
	}
	wantAssign := design.Assignment(slowCell.Assignment).String()
	if cells.Cells[0].Assignment != wantAssign {
		t.Errorf("cell assignment %q, want %q", cells.Cells[0].Assignment, wantAssign)
	}

	var gate collector.GateResponse
	getJSON(t, hs.URL+collector.PathGate+"?experiment="+urlQueryEscape(exp), &gate)
	if gate.OK || gate.Regressed != 1 {
		t.Errorf("gate = %+v, want one regressed cell", gate)
	}
	if len(gate.Verdicts) != 1 || gate.Verdicts[0].Verdict != "REGRESSED" {
		t.Errorf("verdicts = %+v, want a single REGRESSED", gate.Verdicts)
	}
}

// The Worker executor must satisfy the harness contract.
var _ harness.Executor = (*client.Worker)(nil)

// iopipe is io.Pipe under a name that keeps the test body readable.
func iopipe() (*io.PipeReader, *io.PipeWriter) { return io.Pipe() }

// getJSON fetches a status endpoint and decodes its JSON body.
func getJSON(t *testing.T, u string, out any) {
	t.Helper()
	resp, err := http.Get(u)
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s: %s", u, resp.Status)
	}
	if err := json.NewDecoder(resp.Body).Decode(out); err != nil {
		t.Fatalf("GET %s: decoding: %v", u, err)
	}
}

func urlQueryEscape(s string) string { return url.QueryEscape(s) }
