// Restart, epoch, auth, and group-commit coverage: the daemon-hardening
// contract. These tests exercise the durable control state (a second New
// on the same directory resumes workers and leases), the stale-epoch
// 409, the shared-token gate, fsync coalescing, and the inflight-gauge
// regression.
package collector_test

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/httptest"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// restartableServer is a collector whose HTTP front end can be torn down
// and rebuilt on the same directory — the in-process stand-in for
// kill -9 plus restart (Server.Close flushes committers but never
// releases leases, so the control-state journal is exactly what a new
// incarnation sees either way).
type restartableServer struct {
	t   *testing.T
	cfg collector.Config
	srv *collector.Server
	hs  *httptest.Server
}

func startRestartable(t *testing.T, mutate func(*collector.Config)) *restartableServer {
	t.Helper()
	cfg := collector.Config{Dir: t.TempDir(), Shards: 2}
	if mutate != nil {
		mutate(&cfg)
	}
	r := &restartableServer{t: t, cfg: cfg}
	r.start()
	t.Cleanup(r.stop)
	return r
}

func (r *restartableServer) start() {
	r.t.Helper()
	srv, err := collector.New(r.cfg)
	if err != nil {
		r.t.Fatal(err)
	}
	r.srv = srv
	r.hs = httptest.NewServer(srv)
}

func (r *restartableServer) stop() {
	if r.hs != nil {
		r.hs.Close()
		r.hs = nil
	}
	if r.srv != nil {
		r.srv.Close()
		r.srv = nil
	}
}

func (r *restartableServer) restart() {
	r.t.Helper()
	r.stop()
	r.start()
}

func (r *restartableServer) client() *client.Client { return client.New(r.hs.URL, nil) }

// TestRestartResumesLeases: a daemon restart must not orphan the fleet.
// The second incarnation replays the control-state journal: the worker
// registration survives, the lease is live under its original id, renew
// and ingest keep working, and the status view reports the bumped epoch.
func TestRestartResumesLeases(t *testing.T) {
	clock := newFakeClock()
	r := startRestartable(t, func(c *collector.Config) {
		c.Clock = clock.Now
		c.LeaseTTL = time.Hour
	})
	ctx := context.Background()
	const exp = "restart exp"

	c := r.client()
	if _, err := c.Register(ctx, "w1"); err != nil {
		t.Fatal(err)
	}
	grant, err := c.Acquire(ctx, "w1", exp)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.HasPrefix(grant.Lease, "lease-1-") {
		t.Fatalf("lease id %q does not carry epoch 1", grant.Lease)
	}
	rec := recordForShard(t, exp, grant.Shard, grant.Shards, 0)
	if err := c.Ingest(ctx, grant.Lease, []runstore.Record{rec}); err != nil {
		t.Fatal(err)
	}

	r.restart()
	c = r.client()

	st, err := c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 2 {
		t.Errorf("epoch after one restart = %d, want 2", st.Epoch)
	}
	found := false
	for _, w := range st.Workers {
		if w == "w1" {
			found = true
		}
	}
	if !found {
		t.Errorf("worker registration lost across restart: %v", st.Workers)
	}
	if len(st.Experiments) != 1 || st.Experiments[0].Leased != 1 {
		t.Fatalf("lease not resumed: %+v", st.Experiments)
	}
	if got := st.Experiments[0].Leases[0].Lease; got != grant.Lease {
		t.Fatalf("resumed lease id %q, want %q", got, grant.Lease)
	}
	if got := st.Experiments[0].Records; got != 1 {
		t.Errorf("records after restart = %d, want 1 (resumed from the reopened store)", got)
	}

	// The pre-restart worker carries on: renew, ingest, release — all on
	// the old lease id.
	if err := c.Renew(ctx, grant.Lease); err != nil {
		t.Fatalf("renew of resumed lease: %v", err)
	}
	rec2 := recordForShard(t, exp, grant.Shard, grant.Shards, 1)
	if err := c.Ingest(ctx, grant.Lease, []runstore.Record{rec2}); err != nil {
		t.Fatalf("ingest under resumed lease: %v", err)
	}
	warm, err := c.Snapshot(ctx, grant.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 2 {
		t.Fatalf("snapshot holds %d record(s) across the restart, want 2", len(warm))
	}
	if err := c.Release(ctx, grant.Lease, true); err != nil {
		t.Fatalf("release of resumed lease: %v", err)
	}

	// Completion is durable too: a third incarnation still knows the
	// shard is done.
	r.restart()
	c = r.client()
	st, err = c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if st.Epoch != 3 {
		t.Errorf("epoch after two restarts = %d, want 3", st.Epoch)
	}
	if len(st.Experiments) != 1 || st.Experiments[0].Done != 1 {
		t.Fatalf("shard completion lost across restart: %+v", st.Experiments)
	}
}

// TestStaleEpochLease409: a lease id from an earlier incarnation that
// the restart did NOT resume (released before the restart, or never
// granted) answers 409 with the stale-lease marker — distinguishable
// from both the 410 of a current-epoch expiry and the 409 of a sharding
// conflict — and the client maps it to ErrLeaseLost.
func TestStaleEpochLease409(t *testing.T) {
	r := startRestartable(t, nil)
	ctx := context.Background()

	c := r.client()
	grant, err := c.Acquire(ctx, "w1", "stale exp")
	if err != nil {
		t.Fatal(err)
	}
	// Released complete: the state journal remembers the release, so the
	// next incarnation does not resume this lease.
	if err := c.Release(ctx, grant.Lease, false); err != nil {
		t.Fatal(err)
	}
	r.restart()
	c = r.client()

	// Raw wire shape first: 409 + the stale-lease header.
	body := strings.NewReader(fmt.Sprintf(`{"lease":%q}`, grant.Lease))
	resp, err := http.Post(r.hs.URL+collector.PathRenew, "application/json", body)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusConflict {
		t.Fatalf("renew of pre-restart lease = %d, want 409", resp.StatusCode)
	}
	if resp.Header.Get(collector.HeaderStaleLease) == "" {
		t.Errorf("stale-epoch 409 missing the %s marker", collector.HeaderStaleLease)
	}

	// Client mapping: a stale lease is a lost lease, not a conflict.
	if err := c.Renew(ctx, grant.Lease); !errors.Is(err, client.ErrLeaseLost) {
		t.Fatalf("client renew of stale lease = %v, want ErrLeaseLost", err)
	}
	if err := c.Ingest(ctx, grant.Lease, []runstore.Record{testRecord("stale exp", 1, 0)}); !errors.Is(err, client.ErrLeaseLost) {
		t.Fatalf("client ingest under stale lease = %v, want ErrLeaseLost", err)
	}

	// An unknown lease of the CURRENT epoch stays 410 Gone.
	if err := c.Renew(ctx, "lease-2-999"); !errors.Is(err, client.ErrLeaseLost) {
		t.Fatalf("renew of unknown current-epoch lease = %v, want ErrLeaseLost", err)
	}
	resp, err = http.Post(r.hs.URL+collector.PathRenew, "application/json",
		strings.NewReader(`{"lease":"lease-2-999"}`))
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusGone {
		t.Fatalf("renew of unknown current-epoch lease = %d, want 410", resp.StatusCode)
	}
}

// TestClosedServerRefusesRetryably: an ingest or snapshot that reaches
// a closed daemon must bounce with a retryable 503 before touching the
// drained committers or closing stores — the request a worker retries
// across exactly the daemon-restart window the durable control state
// exists for. Anything else (a terminal 400, a panic on the committer
// channel) kills the worker's run instead of bridging the restart.
func TestClosedServerRefusesRetryably(t *testing.T) {
	r := startRestartable(t, nil)
	ctx := context.Background()
	const exp = "close exp"

	c := r.client()
	grant, err := c.Acquire(ctx, "w1", exp)
	if err != nil {
		t.Fatal(err)
	}
	// One landed batch first, so the shard's committer exists when Close
	// drains it.
	rec := recordForShard(t, exp, grant.Shard, grant.Shards, 0)
	if err := c.Ingest(ctx, grant.Lease, []runstore.Record{rec}); err != nil {
		t.Fatal(err)
	}

	// Close the daemon but leave the HTTP front end up: requests still
	// reach the handlers, as they do in the real teardown race.
	if err := r.srv.Close(); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		name string
		do   func() (*http.Response, error)
	}{
		{"ingest", func() (*http.Response, error) {
			return http.Post(r.hs.URL+collector.PathIngest+"?lease="+grant.Lease, "application/x-ndjson", nil)
		}},
		{"snapshot", func() (*http.Response, error) {
			return http.Get(r.hs.URL + collector.PathSnapshot + "?lease=" + grant.Lease)
		}},
	} {
		resp, err := probe.do()
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		retryHint := resp.Header.Get("Retry-After")
		resp.Body.Close()
		if resp.StatusCode != http.StatusServiceUnavailable {
			t.Errorf("%s on closed server = %d, want 503", probe.name, resp.StatusCode)
		}
		if retryHint == "" {
			t.Errorf("%s 503 carries no Retry-After hint", probe.name)
		}
	}
}

// TestSharedTokenAuth: with Config.Token set, every data-plane endpoint
// — the mutating POSTs and the record-streaming snapshot read — refuses
// requests without the bearer token (401), the read-only status and
// metrics surfaces stay open, and a tokened client works end to end.
func TestSharedTokenAuth(t *testing.T) {
	hs, _ := startServer(t, func(c *collector.Config) { c.Token = "s3cret" })
	ctx := context.Background()

	// Bare client: every mutating call bounces.
	bare := client.New(hs.URL, nil)
	if _, err := bare.Register(ctx, "w1"); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("unauthenticated register = %v, want a bearer-token refusal", err)
	}
	if _, err := bare.Acquire(ctx, "w1", "auth exp"); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("unauthenticated acquire = %v, want a bearer-token refusal", err)
	}

	// Wrong token: same refusal, same status.
	req, _ := http.NewRequest(http.MethodPost, hs.URL+collector.PathRegister, strings.NewReader(`{}`))
	req.Header.Set("Authorization", "Bearer wrong")
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		t.Fatal(err)
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusUnauthorized {
		t.Fatalf("wrong token = %d, want 401", resp.StatusCode)
	}

	// Read-only surfaces stay open: a dashboard or scraper needs no
	// write credential.
	for _, path := range []string{collector.PathStatus, collector.PathMetrics} {
		resp, err := http.Get(hs.URL + path)
		if err != nil {
			t.Fatal(err)
		}
		io.Copy(io.Discard, resp.Body)
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("GET %s without token = %d, want 200", path, resp.StatusCode)
		}
	}

	// The tokened client runs the whole lease lifecycle.
	authed := client.New(hs.URL, nil)
	authed.SetToken("s3cret")
	grant, err := authed.Acquire(ctx, "w1", "auth exp")
	if err != nil {
		t.Fatal(err)
	}
	rec := recordForShard(t, "auth exp", grant.Shard, grant.Shards, 0)
	if err := authed.Ingest(ctx, grant.Lease, []runstore.Record{rec}); err != nil {
		t.Fatal(err)
	}

	// Snapshot is a data-plane read — it streams the shard's collected
	// record contents — so a live lease id alone (deterministic form,
	// printed in logs) must not unlock it: no token, no records.
	if _, err := bare.Snapshot(ctx, grant.Lease); err == nil || !strings.Contains(err.Error(), "bearer token") {
		t.Fatalf("unauthenticated snapshot of a live lease = %v, want a bearer-token refusal", err)
	}
	warm, err := authed.Snapshot(ctx, grant.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != 1 {
		t.Fatalf("tokened snapshot holds %d record(s), want 1", len(warm))
	}

	if err := authed.Release(ctx, grant.Lease, true); err != nil {
		t.Fatal(err)
	}
}

// TestGroupCommitCoalesces: concurrent ingest batches may share an fsync
// — how many do depends on how long the disk takes, so what is pinned is
// the accounting (every batch is either a commit of its own or coalesced
// into one, exactly once) and the snapshot (every record still lands).
func TestGroupCommitCoalesces(t *testing.T) {
	reg := obs.NewRegistry()
	hs, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.Metrics = reg
	})
	_ = hs
	ctx := context.Background()
	const exp = "gc exp"

	grant, err := c.Acquire(ctx, "w1", exp)
	if err != nil {
		t.Fatal(err)
	}
	const n = 8
	var wg sync.WaitGroup
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			errs[i] = c.Ingest(ctx, grant.Lease, []runstore.Record{testRecord(exp, i, 0)})
		}(i)
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("ingest %d: %v", i, err)
		}
	}
	warm, err := c.Snapshot(ctx, grant.Lease)
	if err != nil {
		t.Fatal(err)
	}
	if len(warm) != n {
		t.Fatalf("snapshot holds %d record(s), want %d", len(warm), n)
	}
	coalesced := reg.Counter("collector_fsync_coalesced_total", "").Value()
	commits := reg.Counter("collector_group_commits_total", "").Value()
	if got := commits + coalesced; got != n {
		t.Errorf("commits (%d) + coalesced (%d) = %d, want %d (every batch accounted once)", commits, coalesced, got, n)
	}
}

// TestInflightGaugeTornBody is the regression test for the inflight
// accounting: an ingest whose body dies mid-stream (declared
// Content-Length never delivered) must release its admission reserve
// exactly once — the gauge returns to zero, never negative, and the
// budget does not leak.
func TestInflightGaugeTornBody(t *testing.T) {
	reg := obs.NewRegistry()
	hs, c := startServer(t, func(cfg *collector.Config) {
		cfg.Shards = 1
		cfg.Metrics = reg
	})
	ctx := context.Background()
	const exp = "torn exp"

	grant, err := c.Acquire(ctx, "w1", exp)
	if err != nil {
		t.Fatal(err)
	}

	gauge := reg.Gauge("collector_inflight_bytes", "")
	for round := 0; round < 3; round++ {
		// A raw connection so the body can be torn: declare 4096 bytes,
		// send a fragment, slam the connection.
		conn, err := net.Dial("tcp", hs.Listener.Addr().String())
		if err != nil {
			t.Fatal(err)
		}
		fmt.Fprintf(conn, "POST %s?lease=%s HTTP/1.1\r\nHost: collector\r\nContent-Length: 4096\r\n\r\n",
			collector.PathIngest, grant.Lease)
		io.WriteString(conn, `{"experiment":"torn exp","row":0,`)
		conn.Close()

		deadline := time.Now().Add(5 * time.Second)
		for gauge.Value() != 0 {
			if time.Now().After(deadline) {
				t.Fatalf("round %d: inflight gauge stuck at %d after torn body, want 0", round, gauge.Value())
			}
			time.Sleep(5 * time.Millisecond)
		}
		if v := gauge.Value(); v < 0 {
			t.Fatalf("round %d: inflight gauge went negative: %d", round, v)
		}
	}

	// The budget did not leak: a well-formed ingest still lands.
	rec := recordForShard(t, exp, grant.Shard, grant.Shards, 0)
	if err := c.Ingest(ctx, grant.Lease, []runstore.Record{rec}); err != nil {
		t.Fatalf("ingest after torn bodies: %v", err)
	}
	if v := gauge.Value(); v != 0 {
		t.Fatalf("inflight gauge = %d after all requests done, want 0", v)
	}
}
