package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"regexp"
	"strings"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// promSampleRE matches one Prometheus text-format sample line: a metric
// name, an optional {le="..."} label set, and a numeric value.
var promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{le="[^"]+"\})? (NaN|[-+]?(Inf|[0-9].*))$`)

// TestMetricsEndpoint is the observability acceptance test: a daemon on
// the process-default registry plus one in-process worker run must leave
// GET /v1/metrics serving a valid Prometheus text snapshot that spans
// the scheduler, the journal, and the collector layers.
func TestMetricsEndpoint(t *testing.T) {
	srv, err := collector.New(collector.Config{Dir: t.TempDir(), Shards: 1})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	// One real worker run drives every instrumented layer: the per-shard
	// scheduler (sched_*), the spool journal (runstore_*), the client
	// ingest path (worker_*), and the daemon itself (collector_*).
	w, err := client.NewWorker(client.Options{
		URL:      hs.URL,
		Worker:   "obs-worker",
		Workers:  2,
		SpoolDir: t.TempDir(),
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(context.Background(), e2eExperiment(t, 2, nil)); err != nil {
		t.Fatal(err)
	}

	resp, err := http.Get(hs.URL + collector.PathMetrics)
	if err != nil {
		t.Fatal(err)
	}
	body, ct := readAll(t, resp), resp.Header.Get("Content-Type")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("GET %s = %s", collector.PathMetrics, resp.Status)
	}
	if !strings.HasPrefix(ct, "text/plain; version=0.0.4") {
		t.Errorf("Content-Type = %q, want Prometheus text exposition 0.0.4", ct)
	}

	// Every non-comment line must be a well-formed sample; count the
	// distinct series and the layers they cover.
	series := make(map[string]bool)
	for _, line := range strings.Split(strings.TrimRight(body, "\n"), "\n") {
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := promSampleRE.FindStringSubmatch(line)
		if m == nil {
			t.Fatalf("malformed Prometheus sample line %q", line)
		}
		series[m[1]+m[2]] = true
	}
	if len(series) < 12 {
		t.Errorf("/v1/metrics serves %d series, want >= 12:\n%s", len(series), body)
	}
	for _, prefix := range []string{"sched_", "runstore_", "collector_", "worker_"} {
		found := false
		for s := range series {
			if strings.HasPrefix(s, prefix) {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no %s* series in /v1/metrics:\n%s", prefix, body)
		}
	}

	// The units the worker just ran are visible in the shared registry.
	snap := obs.Default().Snapshot()
	mustPositive(t, snap, "sched_units_executed_total")
	mustPositive(t, snap, "runstore_appends_total")
	mustPositive(t, snap, "collector_ingest_records_total")
	mustPositive(t, snap, "worker_records_streamed_total")

	// The JSON shape is the same snapshot, selected by ?format= or by
	// Accept: application/json.
	for _, req := range []func() (*http.Response, error){
		func() (*http.Response, error) {
			return http.Get(hs.URL + collector.PathMetrics + "?format=json")
		},
		func() (*http.Response, error) {
			r, err := http.NewRequest(http.MethodGet, hs.URL+collector.PathMetrics, nil)
			if err != nil {
				return nil, err
			}
			r.Header.Set("Accept", "application/json")
			return http.DefaultClient.Do(r)
		},
	} {
		resp, err := req()
		if err != nil {
			t.Fatal(err)
		}
		var snap obs.Snapshot
		if err := json.Unmarshal([]byte(readAll(t, resp)), &snap); err != nil {
			t.Fatalf("JSON metrics: %v", err)
		}
		if _, ok := snap.Get("collector_ingest_records_total"); !ok {
			t.Error("JSON snapshot is missing collector_ingest_records_total")
		}
	}

	// An unknown format is a client error, not a silent default.
	resp, err = http.Get(hs.URL + collector.PathMetrics + "?format=xml")
	if err != nil {
		t.Fatal(err)
	}
	readAll(t, resp)
	if resp.StatusCode != http.StatusBadRequest {
		t.Errorf("?format=xml status = %s, want 400", resp.Status)
	}
}

// TestBackpressureMetrics pins the backpressure accounting on both
// sides of the wire: a held ingest pins the in-flight budget, the next
// client batch is refused and waits, and afterwards the server registry
// shows the rejection while the client registry shows the wait.
func TestBackpressureMetrics(t *testing.T) {
	sreg := obs.NewRegistry()
	hs, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.MaxInflight = 64
		cfg.Metrics = sreg
	})
	creg := obs.NewRegistry()
	c.SetMetrics(creg)
	ctx := context.Background()
	const exp = "busy metrics exp"

	g, err := c.Acquire(ctx, "w", exp)
	if err != nil {
		t.Fatal(err)
	}
	rec := recordForShard(t, exp, 0, 1, 0)
	var line bytes.Buffer
	if err := runstore.EncodeWire(&line, rec); err != nil {
		t.Fatal(err)
	}

	// Request A stalls with its body half-sent, pinning the budget.
	pr, pw := iopipe()
	defer pw.Close()
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

	// The client's own Ingest hits the full budget, counts the 429 wait,
	// and retries after the hint; meanwhile A completes and frees the
	// budget, so the retry is admitted.
	doneB := make(chan error, 1)
	go func() {
		doneB <- c.Ingest(ctx, g.Lease, []runstore.Record{recordForShard(t, exp, 0, 1, 1)})
	}()
	for { // wait for the refusal to land before unwedging A
		if m, ok := sreg.Snapshot().Get("collector_ingest_rejected_total"); ok && m.Value >= 1 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("the held budget never produced a 429")
		}
		time.Sleep(5 * time.Millisecond)
	}
	if _, err := pw.Write(line.Bytes()); err != nil {
		t.Fatal(err)
	}
	pw.Close()
	if err := <-doneA; err != nil {
		t.Fatal(err)
	}
	if err := <-doneB; err != nil {
		t.Fatal(err)
	}

	mustPositive(t, sreg.Snapshot(), "collector_ingest_rejected_total")
	mustPositive(t, creg.Snapshot(), "worker_backpressure_waits_total")
	mustPositive(t, creg.Snapshot(), "worker_backpressure_wait_ms_total")
	mustPositive(t, creg.Snapshot(), "worker_records_streamed_total")
}

// mustPositive asserts the named series exists in the snapshot with a
// value (or, for histograms, a count) greater than zero.
func mustPositive(t *testing.T, snap obs.Snapshot, name string) {
	t.Helper()
	m, ok := snap.Get(name)
	if !ok {
		t.Errorf("series %s is missing from the snapshot", name)
		return
	}
	if m.Value <= 0 && m.Count <= 0 {
		t.Errorf("series %s = %v (count %d), want > 0", name, m.Value, m.Count)
	}
}

// readAll drains and closes a response body.
func readAll(t *testing.T, resp *http.Response) string {
	t.Helper()
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatal(err)
	}
	return string(data)
}
