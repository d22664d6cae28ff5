package collector_test

import (
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// seedQueryDir writes two finished runs of one cell under dir and
// returns the cell's hash.
func seedQueryDir(t *testing.T, dir string) string {
	t.Helper()
	assign := map[string]string{"f": "x"}
	for i, name := range []string{"base.jsonl", "cur.jsonl"} {
		j, err := runstore.Open(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		for rep := 0; rep < 3; rep++ {
			if err := j.Append(runstore.Record{
				Experiment: "e",
				Replicate:  rep,
				Hash:       runstore.AssignmentHash(assign),
				Assignment: assign,
				Responses:  map[string]float64{"ms": float64(10*(i+1)) + float64(rep)*0.1},
			}); err != nil {
				t.Fatal(err)
			}
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	return runstore.AssignmentHash(assign)
}

// TestQueryEndpoint exercises GET /v1/query end to end: the daemon
// indexes its own store directory on demand and serves the warehouse
// query core's answer — the same answer, field for field, that a
// library caller (and therefore `perfeval query`) computes over the
// same directory, because both run the same core.
func TestQueryEndpoint(t *testing.T) {
	dir := t.TempDir()
	hash := seedQueryDir(t, dir)
	srv, err := collector.New(collector.Config{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })

	get := func(query string) *http.Response {
		t.Helper()
		resp, err := http.Get(hs.URL + collector.PathQuery + query)
		if err != nil {
			t.Fatal(err)
		}
		return resp
	}

	resp := get("?kind=history&experiment=e&cell=" + hash + "&response=ms")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("query status = %d", resp.StatusCode)
	}
	var got warehouse.Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(got.History) != 2 || math.Abs(got.History[0].Mean-10.1) > 1e-9 || math.Abs(got.History[1].Mean-20.1) > 1e-9 {
		t.Fatalf("history over HTTP = %+v", got.History)
	}

	// Parity: a direct warehouse query over the same directory must
	// produce the same answer after a JSON round trip. (The daemon's
	// index file already exists; the library opens the same one.)
	wh, err := warehouse.Open(dir, warehouse.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer wh.Close()
	if _, err := wh.Refresh(); err != nil {
		t.Fatal(err)
	}
	direct, err := wh.Query(warehouse.Request{Kind: warehouse.KindHistory, Experiment: "e", Cell: hash, Response: "ms"})
	if err != nil {
		t.Fatal(err)
	}
	raw, err := json.Marshal(direct)
	if err != nil {
		t.Fatal(err)
	}
	var want warehouse.Result
	if err := json.Unmarshal(raw, &want); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("HTTP answer diverges from the library's:\nhttp:    %+v\nlibrary: %+v", got, want)
	}

	// Regressions over HTTP: base 10.x vs cur 20.x is disjoint.
	resp = get("?kind=regressions")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("regressions status = %d", resp.StatusCode)
	}
	var reg warehouse.Result
	if err := json.NewDecoder(resp.Body).Decode(&reg); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(reg.Regressions) != 1 || reg.Regressions[0].CurRun != "cur.jsonl" {
		t.Fatalf("regressions over HTTP = %+v", reg.Regressions)
	}

	// Bad parameters are a client error, not a daemon failure.
	for _, q := range []string{"?kind=bogus", "?kind=history", "?limit=x", "?confidence=x", "?tolerance=x"} {
		resp := get(q)
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Fatalf("GET %s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestQueryEndpointRejectsNonFinite pins that a confidence or tolerance
// strconv.ParseFloat accepts but no interval can use is a client error,
// not an answer of NaN intervals.
func TestQueryEndpointRejectsNonFinite(t *testing.T) {
	dir := t.TempDir()
	seedQueryDir(t, dir)
	srv, err := collector.New(collector.Config{Dir: dir, Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })
	for _, q := range []string{
		"?kind=history&cell=f%3Dx&confidence=NaN",
		"?kind=regressions&confidence=NaN",
		"?kind=regressions&tolerance=NaN",
		"?kind=regressions&tolerance=Inf",
	} {
		resp, err := http.Get(hs.URL + collector.PathQuery + q)
		if err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()
		if resp.StatusCode != http.StatusBadRequest {
			t.Errorf("GET %s status = %d, want 400", q, resp.StatusCode)
		}
	}
}

// TestQueryEndpointTokenExempt pins the auth contract: /v1/query is a
// read-only aggregate view, open like status and metrics even when the
// data plane requires a bearer token.
func TestQueryEndpointTokenExempt(t *testing.T) {
	dir := t.TempDir()
	seedQueryDir(t, dir)
	srv, err := collector.New(collector.Config{Dir: dir, Token: "secret", Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	t.Cleanup(func() { hs.Close(); srv.Close() })

	resp, err := http.Get(hs.URL + collector.PathQuery + "?kind=runs")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("unauthenticated query status = %d, want 200 (read-only views stay open)", resp.StatusCode)
	}
	var got warehouse.Result
	if err := json.NewDecoder(resp.Body).Decode(&got); err != nil {
		t.Fatal(err)
	}
	if len(got.Runs) != 2 {
		t.Fatalf("runs = %+v, want both seeded stores", got.Runs)
	}
}
