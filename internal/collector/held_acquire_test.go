package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"io"
	"log/slog"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// heldCounter is a slog.Handler that counts the daemon's "acquire held"
// lines: the one observable moment at which a request has entered its
// hold, which is what lets these tests act on the pool only once every
// waiter is really waiting instead of after a sleep.
type heldCounter struct{ held atomic.Int64 }

func (h *heldCounter) Enabled(context.Context, slog.Level) bool { return true }
func (h *heldCounter) WithAttrs([]slog.Attr) slog.Handler       { return h }
func (h *heldCounter) WithGroup(string) slog.Handler            { return h }
func (h *heldCounter) Handle(_ context.Context, r slog.Record) error {
	if r.Message == "acquire held" {
		h.held.Add(1)
	}
	return nil
}

// await polls cond until it holds, failing the test after five seconds.
func await(t *testing.T, what string, cond func() bool) {
	t.Helper()
	for deadline := time.Now().Add(5 * time.Second); !cond(); time.Sleep(time.Millisecond) {
		if time.Now().After(deadline) {
			t.Fatalf("timed out waiting for %s", what)
		}
	}
}

// heldDaemon is a collector under test with its hold counter, private
// registry and an HTTP client whose connections the test can close.
type heldDaemon struct {
	dir  string
	srv  *collector.Server
	hs   *httptest.Server
	held *heldCounter
	reg  *obs.Registry
	tr   *http.Transport
	c    *client.Client
}

func startHeldDaemon(t *testing.T, mutate func(*collector.Config)) *heldDaemon {
	t.Helper()
	d := &heldDaemon{dir: t.TempDir(), held: &heldCounter{}, reg: obs.NewRegistry(), tr: &http.Transport{}}
	cfg := collector.Config{Dir: d.dir, Shards: 1, Metrics: d.reg, Logger: slog.New(d.held)}
	if mutate != nil {
		mutate(&cfg)
	}
	srv, err := collector.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	d.srv, d.hs = srv, httptest.NewServer(srv)
	d.c = client.New(d.hs.URL, &http.Client{Transport: d.tr})
	return d
}

// stop tears everything down in the order a daemon is stopped: Close
// ends the held handlers, then the front end and the client's idle
// connections go.
func (d *heldDaemon) stop(t *testing.T) {
	t.Helper()
	if err := d.srv.Close(); err != nil {
		t.Error(err)
	}
	d.hs.Close()
	d.tr.CloseIdleConnections()
}

// answer is what one raw acquire came back with.
type answer struct {
	status int
	grant  collector.AcquireResponse
	took   time.Duration
	err    error
}

// acquire posts one raw acquire request; waitMS < 0 leaves the field
// out, as a worker that predates it does.
func (d *heldDaemon) acquire(ctx context.Context, worker, experiment string, waitMS int64) answer {
	body := map[string]any{"worker": worker, "experiment": experiment}
	if waitMS >= 0 {
		body["wait_ms"] = waitMS
	}
	data, _ := json.Marshal(body)
	req, err := http.NewRequestWithContext(ctx, http.MethodPost, d.hs.URL+collector.PathAcquire, bytes.NewReader(data))
	if err != nil {
		return answer{err: err}
	}
	start := time.Now()
	resp, err := (&http.Client{Transport: d.tr}).Do(req)
	if err != nil {
		return answer{err: err, took: time.Since(start)}
	}
	defer resp.Body.Close()
	a := answer{status: resp.StatusCode, took: time.Since(start)}
	if resp.StatusCode == http.StatusOK {
		a.err = json.NewDecoder(resp.Body).Decode(&a.grant)
	}
	io.Copy(io.Discard, resp.Body)
	return a
}

// waiters starts n held acquires and returns the channel their answers
// arrive on, once the daemon has said all n are held.
func (d *heldDaemon) waiters(t *testing.T, n int, experiment string, waitMS int64) <-chan answer {
	t.Helper()
	before := d.held.held.Load()
	answers := make(chan answer, n)
	for i := 0; i < n; i++ {
		go func() { answers <- d.acquire(context.Background(), "waiter", experiment, waitMS) }()
	}
	await(t, "every waiter to be held", func() bool { return d.held.held.Load() == before+int64(n) })
	return answers
}

// stateEvents counts the control-state journal's lines by event type.
func (d *heldDaemon) stateEvents(t *testing.T) map[string]int {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(d.dir, collector.StateFile))
	if err != nil {
		t.Fatal(err)
	}
	counts := map[string]int{}
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		var ev struct {
			Type string `json:"type"`
		}
		if err := json.Unmarshal([]byte(line), &ev); err != nil {
			t.Fatalf("state journal line %q: %v", line, err)
		}
		counts[ev.Type]++
	}
	return counts
}

func (d *heldDaemon) heldObservations() int64 {
	m, _ := d.reg.Snapshot().Get("collector_acquire_held_seconds")
	return m.Count
}

// TestHeldAcquireReleaseWakesWaiters: with every incomplete shard leased,
// acquires that carry wait_ms are kept, not refused. A shard released
// free goes to exactly one of them while the rest keep waiting — and
// nothing about the waiting reaches the control-state journal — and the
// last shard released complete answers every one of them 204 at once.
func TestHeldAcquireReleaseWakesWaiters(t *testing.T) {
	const exp, n = "held exp", 4
	d := startHeldDaemon(t, nil)
	defer d.stop(t)
	ctx := context.Background()

	owner, err := d.c.Acquire(ctx, "owner", exp)
	if err != nil {
		t.Fatal(err)
	}
	answers := d.waiters(t, n, exp, 60_000)
	select {
	case a := <-answers:
		t.Fatalf("a waiter was answered %d while the only shard was leased", a.status)
	case <-time.After(50 * time.Millisecond):
	}
	if got := d.stateEvents(t); got["acquire"] != 1 {
		t.Errorf("state journal holds %v with %d acquire(s) held; want one acquire event, the owner's", got, n)
	}

	if err := d.c.Release(ctx, owner.Lease, false); err != nil {
		t.Fatal(err)
	}
	var next answer
	select {
	case next = <-answers:
	case <-time.After(5 * time.Second):
		t.Fatal("no waiter was granted the released shard")
	}
	if next.err != nil || next.status != http.StatusOK || next.grant.Shard != 0 {
		t.Fatalf("first answer after the release = %+v, want a grant of shard 0", next)
	}
	select {
	case a := <-answers:
		t.Fatalf("a second waiter was answered %d for one released shard", a.status)
	case <-time.After(100 * time.Millisecond):
	}
	if got := d.stateEvents(t); got["acquire"] != 2 {
		t.Errorf("state journal holds %v; want two acquire events (owner, one waiter)", got)
	}

	if err := d.c.Release(ctx, next.grant.Lease, true); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n-1; i++ {
		select {
		case a := <-answers:
			if a.err != nil || a.status != http.StatusNoContent {
				t.Errorf("waiter answered %+v after the last completion, want 204", a)
			}
		case <-time.After(5 * time.Second):
			t.Fatalf("only %d of %d waiter(s) were told the experiment is complete", i, n-1)
		}
	}
	if got := d.heldObservations(); got != n {
		t.Errorf("collector_acquire_held_seconds counts %d answer(s), want %d", got, n)
	}
}

// TestHeldAcquireWokenByExpiry: the expiry sweep is lazy — it runs when
// a request arrives — so a held acquire must wake itself at the earliest
// live lease's deadline. Nothing else talks to the daemon here.
func TestHeldAcquireWokenByExpiry(t *testing.T) {
	const exp, ttl = "expiry exp", 150 * time.Millisecond
	d := startHeldDaemon(t, func(c *collector.Config) { c.LeaseTTL = ttl })
	defer d.stop(t)
	if _, err := d.c.Acquire(context.Background(), "silent", exp); err != nil {
		t.Fatal(err)
	}
	a := d.acquire(context.Background(), "heir", exp, 60_000)
	if a.err != nil || a.status != http.StatusOK {
		t.Fatalf("held acquire = %+v, want the expired lease's shard", a)
	}
	if a.took < ttl/2 || a.took > 30*ttl {
		t.Errorf("held acquire was answered after %v; the lease it waited out had a TTL of %v", a.took, ttl)
	}
	if got := d.stateEvents(t); got["expire"] != 1 || got["acquire"] != 2 {
		t.Errorf("state journal holds %v; want one expire and two acquires", got)
	}
}

// TestHeldAcquireWaitRunsOut: wait_ms bounds the hold and 409 (with its
// Retry-After) is still what ends it; an acquire without the field — an
// old worker's — is answered at once, exactly as before.
func TestHeldAcquireWaitRunsOut(t *testing.T) {
	const exp = "busy exp"
	d := startHeldDaemon(t, nil)
	defer d.stop(t)
	ctx := context.Background()
	if _, err := d.c.Acquire(ctx, "owner", exp); err != nil {
		t.Fatal(err)
	}
	for _, waitMS := range []int64{-1, 0} {
		if a := d.acquire(ctx, "old", exp, waitMS); a.err != nil || a.status != http.StatusConflict {
			t.Errorf("acquire with wait_ms %d = %+v, want 409", waitMS, a)
		}
	}
	if _, err := d.c.Acquire(ctx, "old", exp); !errors.Is(err, client.ErrBusy) {
		t.Errorf("Client.Acquire = %v, want ErrBusy", err)
	}
	if got := d.held.held.Load(); got != 0 {
		t.Fatalf("%d acquire(s) without wait_ms were held", got)
	}
	a := d.acquire(ctx, "new", exp, 80)
	if a.err != nil || a.status != http.StatusConflict {
		t.Fatalf("acquire with wait_ms 80 = %+v, want 409 once the wait ran out", a)
	}
	if a.took < 80*time.Millisecond {
		t.Errorf("409 came back after %v, before wait_ms ran out", a.took)
	}
	if got := d.held.held.Load(); got != 1 {
		t.Errorf("%d acquire(s) held, want 1", got)
	}
}

// TestHeldAcquireEndsWithClientAndClose: a held handler ends promptly
// when its client goes away and when the daemon begins to close — also
// with acquires still arriving while it closes — and leaves no goroutine
// behind.
func TestHeldAcquireEndsWithClientAndClose(t *testing.T) {
	const exp = "closing exp"
	base := runtime.NumGoroutine()
	d := startHeldDaemon(t, nil)
	ctx := context.Background()
	if _, err := d.c.Acquire(ctx, "owner", exp); err != nil {
		t.Fatal(err)
	}

	gone, cancel := context.WithCancel(ctx)
	left := make(chan answer, 1)
	go func() { left <- d.acquire(gone, "leaver", exp, 60_000) }()
	await(t, "the leaver to be held", func() bool { return d.held.held.Load() == 1 })
	cancel()
	if a := <-left; !errors.Is(a.err, context.Canceled) {
		t.Errorf("cancelled acquire = %+v, want context.Canceled", a)
	}
	await(t, "the abandoned handler to end", func() bool { return d.heldObservations() == 1 })

	answers := d.waiters(t, 3, exp, 60_000)
	var late sync.WaitGroup
	for i := 0; i < 4; i++ {
		late.Add(1)
		go func() {
			defer late.Done()
			if a := d.acquire(ctx, "late", exp, 60_000); a.err != nil || a.status != http.StatusConflict {
				t.Errorf("acquire racing Close = %+v, want 409", a)
			}
		}()
	}
	closed := time.Now()
	if err := d.srv.Close(); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		select {
		case a := <-answers:
			if a.err != nil || a.status != http.StatusConflict {
				t.Errorf("held acquire at Close = %+v, want 409", a)
			}
		case <-time.After(5 * time.Second):
			t.Fatal("Close left a held acquire waiting")
		}
	}
	late.Wait()
	if took := time.Since(closed); took > 2*time.Second {
		t.Errorf("held acquires took %v to end after Close", took)
	}
	d.stop(t)
	waitGoroutines(t, base)
}

// waitGoroutines polls until the goroutine count drops back to at most
// base, tolerating the runtime's own background goroutines (the
// sched/leak_test.go idiom).
func waitGoroutines(t *testing.T, base int) {
	t.Helper()
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(5 * time.Millisecond)
	}
	if n := runtime.NumGoroutine(); n > base {
		buf := make([]byte, 1<<16)
		t.Errorf("%d goroutines still alive, started with %d:\n%s", n, base, buf[:runtime.Stack(buf, true)])
	}
}

// TestOldWorkerNewDaemon: a worker that predates wait_ms — it polls
// acquire with no hold and sleeps between refusals — still completes a
// run against this daemon, next to nobody or next to a new worker.
func TestOldWorkerNewDaemon(t *testing.T) {
	const exp, shards = "old worker exp", 2
	d := startHeldDaemon(t, func(c *collector.Config) { c.Shards = shards })
	defer d.stop(t)
	ctx := context.Background()

	oldWorker := func(name string) error {
		for {
			grant, err := d.c.Acquire(ctx, name, exp)
			switch {
			case errors.Is(err, client.ErrComplete):
				return nil
			case errors.Is(err, client.ErrBusy):
				time.Sleep(5 * time.Millisecond)
				continue
			case err != nil:
				return err
			}
			if _, err := d.c.Snapshot(ctx, grant.Lease); err != nil {
				return err
			}
			rec := recordForShard(t, exp, grant.Shard, grant.Shards, 0)
			if err := d.c.Ingest(ctx, grant.Lease, []runstore.Record{rec}); err != nil {
				return err
			}
			time.Sleep(20 * time.Millisecond) // long enough for the other to find it busy
			if err := d.c.Release(ctx, grant.Lease, true); err != nil {
				return err
			}
		}
	}
	errs := make(chan error, 3)
	for _, name := range []string{"old-0", "old-1", "old-2"} {
		go func() { errs <- oldWorker(name) }()
	}
	for i := 0; i < 3; i++ {
		if err := <-errs; err != nil {
			t.Fatal(err)
		}
	}
	st, err := d.c.Status(ctx)
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Experiments) != 1 || st.Experiments[0].Done != shards || st.Experiments[0].Records != shards {
		t.Errorf("status after the old workers = %+v, want %d shards done with a record each", st.Experiments, shards)
	}
	if got := d.held.held.Load(); got != 0 {
		t.Errorf("%d acquire(s) of workers that sent no wait_ms were held", got)
	}
}
