package collector_test

import (
	"context"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/design"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
	"repro/internal/warehouse"
)

// TestGateWhileWorkersStream polls /v1/status/gate while two workers
// stream one experiment into a 3-shard daemon. The gate summarizes the
// shard journals the daemon's committers are appending to, so every poll
// must answer — 200, or 404 until the experiment's first record lands —
// and never fail. Once the fleet is done, the gate's report is the one
// gating the baseline against the merged shard files gives: what
// repro.Diff computes, warehouse.Summarize of each file and runstore.Gate.
func TestGateWhileWorkersStream(t *testing.T) {
	const reps, shards, fleet = 3, 3, 2
	name := "collector 2^2"

	// The baseline ran one cell 50% slower and one 50% faster than the
	// fleet will: one improved, one regressed and two unchanged cells.
	baseDir := t.TempDir()
	shifted := func(a design.Assignment, rep int) (map[string]float64, error) {
		out, err := e2eRunner(a, rep)
		switch a.String() {
		case "cache=1KB memory=4MB":
			out["MIPS"] *= 1.5
		case "cache=2KB memory=16MB":
			out["MIPS"] *= 0.5
		}
		return out, err
	}
	s := sched.New(sched.Options{Workers: 1, Open: func(name string) (runstore.Store, error) { return runstore.OpenDir(baseDir, name) }})
	if _, err := s.Execute(context.Background(), e2eExperiment(t, reps, shifted)); err != nil {
		t.Fatal(err)
	}
	baseline := filepath.Join(baseDir, runstore.SanitizeName(name)+".jsonl")

	srvDir := t.TempDir()
	srv, err := collector.New(collector.Config{Dir: srvDir, Shards: shards, Baseline: baseline})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()
	gateURL := hs.URL + collector.PathGate + "?experiment=" + urlQueryEscape(name)
	poll := func() (int, collector.GateResponse, error) {
		var gate collector.GateResponse
		resp, err := http.Get(gateURL)
		if err != nil {
			return 0, gate, err
		}
		defer resp.Body.Close()
		if resp.StatusCode == http.StatusOK {
			err = json.NewDecoder(resp.Body).Decode(&gate)
		}
		return resp.StatusCode, gate, err
	}

	streaming := make(chan struct{})
	polled := make(chan error, 1)
	go func() {
		for n := 0; ; n++ {
			select {
			case <-streaming:
				polled <- nil
				return
			default:
			}
			code, _, err := poll()
			if err == nil && code != http.StatusOK && code != http.StatusNotFound {
				err = fmt.Errorf("status %d", code)
			}
			if err != nil {
				polled <- fmt.Errorf("poll %d: %w", n, err)
				return
			}
		}
	}()
	var wg sync.WaitGroup
	errs := make([]error, fleet)
	for i := range errs {
		w, err := client.NewWorker(client.Options{
			URL:         hs.URL,
			Worker:      fmt.Sprintf("gate-%d", i),
			Workers:     2,
			SpoolDir:    t.TempDir(),
			AcquireWait: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		exp := e2eExperiment(t, reps, nil)
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Execute(context.Background(), exp)
		}()
	}
	wg.Wait()
	close(streaming)
	if err := <-polled; err != nil {
		t.Fatalf("gate while streaming: %v", err)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	code, gate, err := poll()
	if err != nil || code != http.StatusOK {
		t.Fatalf("gate after streaming: status %d, %v", code, err)
	}
	paths := shardstore.Paths(srvDir, name, shards)
	holding := 0
	for _, path := range paths {
		sums, err := warehouse.Summarize(path)
		if err != nil {
			t.Fatal(err)
		}
		holding += len(sums)
	}
	if holding < 2 {
		t.Fatalf("%d of %d shard files hold cells; the gate should read several", holding, shards)
	}
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	if _, err := runstore.Merge(paths, merged); err != nil {
		t.Fatal(err)
	}
	baseSums, err := warehouse.Summarize(baseline)
	if err != nil {
		t.Fatal(err)
	}
	curSums, err := warehouse.Summarize(merged)
	if err != nil {
		t.Fatal(err)
	}
	want, err := runstore.Gate(baseSums[0], curSums[0], runstore.GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if gate.Report != want.String() {
		t.Errorf("live gate report:\n%s\nthe merged shard files gate to:\n%s", gate.Report, want)
	}
	counts := map[string]int{}
	for i, v := range gate.Verdicts {
		counts[v.Verdict]++
		if f := want.Findings[i]; v.Verdict != f.Verdict.String() || v.Assignment != design.Assignment(f.Assignment).String() {
			t.Errorf("verdict %d = %+v, want %s on %v", i, v, f.Verdict, f.Assignment)
		}
	}
	if len(gate.Verdicts) != 4 || counts["REGRESSED"] != 1 || counts["improved"] != 1 || gate.OK {
		t.Errorf("verdicts = %+v, want 4 with one REGRESSED and one improved", gate.Verdicts)
	}
}

// TestGateReadsBaselineOnce pins that the daemon summarizes its baseline
// when it starts: with the baseline file deleted under a running daemon,
// /v1/status/gate still answers the report it gave before, and a daemon
// whose baseline cannot be read does not start.
func TestGateReadsBaselineOnce(t *testing.T) {
	const exp, reps = "baseline once", 3
	baseline := filepath.Join(t.TempDir(), "base.jsonl")
	j, err := runstore.Open(baseline)
	if err != nil {
		t.Fatal(err)
	}
	var recs []runstore.Record
	for seed := 0; seed < 2; seed++ {
		for rep := 0; rep < reps; rep++ {
			rec := testRecord(exp, seed, rep)
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
			rec.Responses = map[string]float64{"ms": rec.Responses["ms"] * float64(1+seed)}
			recs = append(recs, rec)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	hs, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.Baseline = baseline
	})
	ctx := context.Background()
	g, err := c.Acquire(ctx, "w", exp)
	if err != nil {
		t.Fatal(err)
	}
	if err := c.Ingest(ctx, g.Lease, recs); err != nil {
		t.Fatal(err)
	}
	gate := func() collector.GateResponse {
		t.Helper()
		resp, err := http.Get(hs.URL + collector.PathGate + "?experiment=" + urlQueryEscape(exp))
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		var out collector.GateResponse
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("gate status %d", resp.StatusCode)
		}
		if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
			t.Fatal(err)
		}
		return out
	}
	before := gate()
	if len(before.Verdicts) != 2 || before.Regressed != 1 {
		t.Fatalf("gate = %+v, want 2 cells, one regressed", before)
	}
	if err := os.Remove(baseline); err != nil {
		t.Fatal(err)
	}
	if after := gate(); after.Report != before.Report {
		t.Errorf("gate after the baseline file went:\n%s\nbefore:\n%s", after.Report, before.Report)
	}

	_, err = collector.New(collector.Config{Dir: t.TempDir(), Baseline: baseline})
	if err == nil || !strings.Contains(err.Error(), baseline) {
		t.Errorf("New with a missing baseline = %v, want an error naming %s", err, baseline)
	}
	// Bytes that hold no record are no baseline either: the daemon does
	// not start, rather than answer every gate with 404.
	if err := os.WriteFile(baseline, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = collector.New(collector.Config{Dir: t.TempDir(), Baseline: baseline})
	if err == nil || !strings.Contains(err.Error(), baseline) {
		t.Errorf("New with a garbage baseline = %v, want an error naming %s", err, baseline)
	}
}
