// Internal-package tests for ingest failure classification: a
// server-side storage failure must answer a retryable 503, never the
// terminal 400 a malformed stream earns. These reach into Server.exps
// to break the store under a live lease, which the HTTP-level tests
// cannot.
package collector

import (
	"bytes"
	"encoding/json"
	"fmt"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// TestIngestStoreFailureAnswers503 closes the experiment's store out
// from under a live lease — the in-process stand-in for a full disk —
// and asserts the ingest answers 503 with a Retry-After hint.
func TestIngestStoreFailureAnswers503(t *testing.T) {
	t.Run("group-commit", func(t *testing.T) {
		srv, err := New(Config{Dir: t.TempDir(), Shards: 1, Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		hs := httptest.NewServer(srv)
		defer hs.Close()
		defer srv.Close()

		resp, err := http.Post(hs.URL+PathAcquire, "application/json",
			strings.NewReader(`{"worker":"w1","experiment":"e"}`))
		if err != nil {
			t.Fatal(err)
		}
		var grant AcquireResponse
		if err := json.NewDecoder(resp.Body).Decode(&grant); err != nil {
			t.Fatal(err)
		}
		resp.Body.Close()

		srv.mu.Lock()
		srv.exps["e"].store.Close()
		srv.mu.Unlock()

		rec := runstore.Record{
			Experiment: "e", Row: 0, Replicate: 0,
			Assignment: map[string]string{"x": "a"},
			Responses:  map[string]float64{"ms": 1},
		}
		var body bytes.Buffer
		if err := runstore.EncodeWire(&body, rec); err != nil {
			t.Fatal(err)
		}
		resp, err = http.Post(fmt.Sprintf("%s%s?lease=%s", hs.URL, PathIngest, grant.Lease),
			runstore.WireJSONType, &body)
		if err != nil {
			t.Fatal(err)
		}
		defer resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Fatalf("ingest onto a failed store = %d, want 503", resp.StatusCode)
		}
		if resp.Header.Get("Retry-After") == "" {
			t.Error("503 carries no Retry-After hint")
		}
		var e ErrorResponse
		if err := json.NewDecoder(resp.Body).Decode(&e); err != nil {
			t.Fatal(err)
		}
		if !strings.Contains(e.Error, "storing batch") {
			t.Errorf("error %q does not name the storage failure", e.Error)
		}
	})
}
