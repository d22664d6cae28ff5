package client

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"sync"
	"time"

	"repro/internal/collector"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
)

// Options configure a Worker.
type Options struct {
	// URL is the collector's base URL (e.g. "http://host:8080").
	// Required.
	URL string
	// Worker names this worker in leases and status — its first acquire
	// registers it; empty asks the server to assign one (a register
	// round trip before the first acquire).
	Worker string
	// Workers, Retries, Timeout configure the underlying scheduler per
	// shard run, exactly as sched.Options do.
	Workers int
	Retries int
	Timeout time.Duration
	// SpoolDir is where the local spool journals (one per experiment
	// shard) are written; empty means a fresh temporary directory.
	SpoolDir string
	// AcquireWait is the longest one acquire is held: while every
	// incomplete shard is leased by someone else the worker asks the
	// daemon to keep the request this long (wait_ms) and is answered the
	// moment a shard comes free or the experiment completes — it does not
	// poll. Against a daemon that answers "busy" sooner (one that
	// predates wait_ms, or is closing) the worker sleeps out the rest, so
	// this is also the shortest time between two acquires that found
	// nothing, and the pause after one that failed. HTTPClient must not
	// time a request out in less. 0 means 1s.
	AcquireWait time.Duration
	// BinaryWire streams ingest uploads (and asks for snapshots) in the
	// binary wire framing instead of the NDJSON default — the encoding
	// is negotiated per request, so the setting is safe against a server
	// that only speaks JSON. See Client.SetBinary.
	BinaryWire bool
	// Token is the collector's shared bearer token, sent on every
	// request; must match the server's collector.Config.Token when the
	// daemon has auth enabled. See Client.SetToken.
	Token string
	// HTTPClient overrides the transport; nil means http.DefaultClient.
	HTTPClient *http.Client
	// Metrics is the registry the worker's instruments (and its
	// scheduler's) register in; nil means the process-wide obs.Default().
	Metrics *obs.Registry
	// Logger receives the worker's structured log; nil discards. The
	// perfeval work command wires it to stderr at the level chosen by
	// -Dcollector.log.
	Logger *slog.Logger
}

// Report accumulates what a Worker did across every shard it served.
type Report struct {
	Shards   int   // shard leases run to completion
	Executed int   // units executed live on this worker
	Replayed int   // units replayed from warm-start snapshots or spool
	Streamed int64 // records acknowledged by the collector
}

// Worker is the collector-backed harness.Executor: Execute leases
// shards of the experiment from the collector, runs each through the
// concurrent scheduler against a remoteStore, and loops until the
// server reports the experiment complete. It is the `perfeval work`
// engine, and composes with everything an executor composes with —
// harness.WithExecutor, the paperexp drivers, the public repro API.
type Worker struct {
	opts Options
	c    *Client

	registerOnce sync.Once
	name         string
	registerErr  error

	mu     sync.Mutex
	report Report
}

// NewWorker returns a Worker for the collector at opts.URL.
func NewWorker(opts Options) (*Worker, error) {
	if opts.URL == "" {
		return nil, fmt.Errorf("collector client: Options.URL is required")
	}
	if opts.AcquireWait <= 0 {
		opts.AcquireWait = time.Second
	}
	if opts.Metrics == nil {
		opts.Metrics = obs.Default()
	}
	if opts.Logger == nil {
		opts.Logger = discardLogger()
	}
	c := New(opts.URL, opts.HTTPClient)
	c.SetMetrics(opts.Metrics)
	c.SetLogger(opts.Logger)
	c.SetBinary(opts.BinaryWire)
	c.SetToken(opts.Token)
	return &Worker{opts: opts, c: c}, nil
}

// MetricsSnapshot returns a point-in-time snapshot of the registry the
// worker's instruments live in (Options.Metrics or the process default).
func (w *Worker) MetricsSnapshot() obs.Snapshot { return w.opts.Metrics.Snapshot() }

var _ harness.Executor = (*Worker)(nil)

// Report returns what the worker has done so far.
func (w *Worker) Report() Report {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.report
}

// Execute implements harness.Executor: acquire a lease, run the leased
// shard through the scheduler (streaming appends as they complete),
// release it complete, and repeat until the collector answers that the
// experiment is done. The returned ResultSet holds the rows this worker
// executed or replayed; rows other workers own carry no replicates —
// the complete artifact is the server-side merge, exactly as in the
// single-disk sharded workflow.
//
// On lease loss or a server-reported conflict the worker stops cleanly
// with the cause: the local spool journal is valid, and everything the
// server acknowledged warm-starts the shard's next owner.
func (w *Worker) Execute(ctx context.Context, e *harness.Experiment) (*harness.ResultSet, error) {
	if err := e.Validate(); err != nil {
		return nil, err
	}
	w.registerOnce.Do(func() {
		// A named worker's first acquire registers it; only a name the
		// server must assign needs the round trip.
		if w.name = w.opts.Worker; w.name == "" {
			w.name, w.registerErr = w.c.Register(ctx, "")
		}
	})
	if w.registerErr != nil {
		return nil, fmt.Errorf("collector client: register: %w", w.registerErr)
	}
	spool := w.opts.SpoolDir
	if spool == "" {
		dir, err := os.MkdirTemp("", "collector-spool-")
		if err != nil {
			return nil, fmt.Errorf("collector client: %w", err)
		}
		spool = dir
	}
	var best *harness.ResultSet
	// Transient-failure budget: a restarting daemon (connection refused
	// on acquire, a lease lost to the restart) costs one strike per
	// round; any completed shard run earns them all back. Only a failure
	// streak — the daemon is really gone, not just restarting — stops
	// the worker.
	const maxStrikes = 10
	strikes := 0
	for {
		// No acquire follows another by less than AcquireWait unless it
		// was granted: the daemon holds a request that finds nothing for
		// that long, and what it did not hold, the worker sleeps.
		next := time.Now().Add(w.opts.AcquireWait)
		grant, err := w.c.acquire(ctx, w.name, e.Name, w.opts.AcquireWait)
		switch {
		case errors.Is(err, ErrComplete):
			if best == nil {
				// The experiment finished before this worker got a shard;
				// report the design with no replicates, like a sharded
				// worker that owned no rows.
				return emptyResultSet(e)
			}
			return best, nil
		case errors.Is(err, ErrBusy):
			if err := sleepUntil(ctx, next); err != nil {
				return nil, err
			}
			continue
		case err != nil:
			if ctx.Err() != nil {
				return nil, err
			}
			strikes++
			if strikes >= maxStrikes {
				return nil, fmt.Errorf("collector client: acquire failed %d times in a row: %w", strikes, err)
			}
			w.opts.Logger.Warn("acquire failed, retrying",
				"worker", w.name, "strikes", strikes, "err", err)
			if err := sleepUntil(ctx, next); err != nil {
				return nil, err
			}
			continue
		}
		rs, err := w.runShard(ctx, e, spool, grant)
		if err != nil {
			// A lost lease — TTL expiry during a stall, a daemon restart
			// that did not resume it — is not this worker's failure: the
			// shard is (or will be) free again, the spool and everything
			// the server acknowledged warm-start its next owner, and that
			// next owner may as well be us. Re-acquire.
			if errors.Is(err, ErrLeaseLost) && ctx.Err() == nil {
				strikes++
				if strikes >= maxStrikes {
					return nil, err
				}
				w.opts.Logger.Warn("lease lost mid-run, re-acquiring",
					"worker", w.name, "lease", grant.Lease, "strikes", strikes, "err", err)
				continue
			}
			return nil, err
		}
		strikes = 0
		best = mergeResults(best, rs)
	}
}

// sleepUntil waits for t, or not at all when t has passed; it returns
// ctx's error if that ends the wait.
func sleepUntil(ctx context.Context, t time.Time) error {
	d := time.Until(t)
	if d <= 0 {
		return ctx.Err()
	}
	timer := time.NewTimer(d)
	defer timer.Stop()
	select {
	case <-timer.C:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}

// runShard executes one leased shard through the scheduler and releases
// it complete. The lease is renewed at a third of its TTL for as long
// as the run lasts.
func (w *Worker) runShard(ctx context.Context, e *harness.Experiment, spool string, grant *collector.AcquireResponse) (*harness.ResultSet, error) {
	warm, err := w.c.Snapshot(ctx, grant.Lease)
	if err != nil {
		return nil, err
	}
	store, err := newRemoteStore(ctx, w.c,
		grant.Lease, shardstore.Path(spool, e.Name, grant.Shard, grant.Shards), warm)
	if err != nil {
		return nil, err
	}

	// The renewer keeps the lease alive; losing it cancels the shard run
	// so the scheduler drains instead of burning work nobody will
	// collect.
	shardCtx, cancelShard := context.WithCancel(ctx)
	defer cancelShard()
	renewCtx, stopRenew := context.WithCancel(ctx)
	var renewWG sync.WaitGroup
	ttl := time.Duration(grant.TTLMillis) * time.Millisecond
	period := ttl / 3
	if period <= 0 {
		// A sub-3ms TTL (fake-clock test servers) must not hand
		// time.NewTicker a zero period, which panics.
		period = time.Millisecond
	}
	renewWG.Add(1)
	go func() {
		defer renewWG.Done()
		ticker := time.NewTicker(period)
		defer ticker.Stop()
		renewLoop(renewCtx, grant.Lease, ttl, ticker.C, time.Now,
			func() error { return w.c.Renew(renewCtx, grant.Lease) },
			func(err error) {
				store.markLost(err)
				cancelShard()
			},
			w.opts.Logger)
	}()

	w.opts.Logger.Info("shard run starting", "worker", w.name, "lease", grant.Lease,
		"experiment", e.Name, "shard", grant.Shard, "shards", grant.Shards, "warm", len(warm))
	s := sched.New(sched.Options{
		Workers: w.opts.Workers,
		Retries: w.opts.Retries,
		Timeout: w.opts.Timeout,
		Store:   store,
		Shards:  grant.Shards,
		Shard:   grant.Shard,
		Metrics: w.opts.Metrics,
	})
	// What an earlier run over this spool left unacknowledged goes to the
	// collector first: the scheduler will only replay it.
	var rs *harness.ResultSet
	runErr := store.restream(e.Name, grant.Shard, grant.Shards)
	if runErr == nil {
		rs, runErr = s.Execute(shardCtx, e)
	}
	stopRenew()
	renewWG.Wait()
	closeErr := store.Close()

	st := s.LastStats()
	w.mu.Lock()
	w.report.Executed += st.Executed
	w.report.Replayed += st.Replayed
	w.report.Streamed += store.Streamed()
	w.mu.Unlock()

	if lost := store.lostErr(); lost != nil {
		return nil, fmt.Errorf("collector client: shard %d of %s stopped cleanly (spool journal %s is valid): %w",
			grant.Shard, e.Name, store.LocalPath(), lost)
	}
	if runErr != nil {
		// A unit failure, not a lease problem: hand the shard back warm
		// so another worker (or a retry of this one) can finish it.
		relCtx, cancel := context.WithTimeout(context.WithoutCancel(ctx), 5*time.Second)
		if relErr := w.c.Release(relCtx, grant.Lease, false); relErr != nil {
			// Not fatal — the lease just expires on its own — but an
			// un-released shard is invisible dead time for the fleet, so
			// say which one is stuck and until when.
			w.opts.Logger.Warn("abandoning shard: release failed; shard stays leased until TTL expiry",
				"lease", grant.Lease, "experiment", e.Name, "shard", grant.Shard, "ttl", ttl, "err", relErr)
		}
		cancel()
		return nil, runErr
	}
	if closeErr != nil {
		return nil, closeErr
	}
	if err := w.c.Release(ctx, grant.Lease, true); err != nil {
		return nil, err
	}
	w.mu.Lock()
	w.report.Shards++
	w.mu.Unlock()
	w.opts.Logger.Info("shard run complete", "worker", w.name, "lease", grant.Lease,
		"experiment", e.Name, "shard", grant.Shard,
		"executed", st.Executed, "replayed", st.Replayed, "streamed", store.Streamed())
	return rs, nil
}

// renewLoop keeps one lease alive: on every tick it renews, resetting
// the TTL deadline on success. ErrLeaseLost stops it immediately. Any
// other renew error — a flaky network, a restarting server — is logged
// at warn and tolerated only until a full TTL elapses with no
// successful renew: by then the server has expired the lease whatever
// the transport said, so continuing to execute would burn work that can
// only 410 on ingest. lost is called at most once, with an error
// matching ErrLeaseLost.
//
// The loop is driven entirely through its parameters (tick channel,
// clock, renew and lost callbacks) so tests run it against a fake clock
// with no timing dependence; runShard wires the real ticker and client.
func renewLoop(ctx context.Context, lease string, ttl time.Duration, tick <-chan time.Time, now func() time.Time, renew func() error, lost func(error), log *slog.Logger) {
	deadline := now().Add(ttl)
	for {
		select {
		case <-ctx.Done():
			return
		case <-tick:
			err := renew()
			switch {
			case err == nil:
				deadline = now().Add(ttl)
			case errors.Is(err, ErrLeaseLost):
				lost(err)
				return
			case ctx.Err() != nil:
				// The shard run is shutting down: the renew failed because
				// its context died, not because the lease did.
				return
			default:
				log.Warn("lease renew failed", "lease", lease, "err", err)
				if !now().Before(deadline) {
					lost(fmt.Errorf("%w: no successful renew within TTL %v (last error: %v)", ErrLeaseLost, ttl, err))
					return
				}
			}
		}
	}
}

// emptyResultSet renders the design with zero replicates everywhere —
// what a worker that owned no rows reports.
func emptyResultSet(e *harness.Experiment) (*harness.ResultSet, error) {
	rs := &harness.ResultSet{Experiment: e}
	for r := 0; r < e.Design.NumRuns(); r++ {
		a, err := e.Design.Assignment(r)
		if err != nil {
			return nil, err
		}
		rs.Rows = append(rs.Rows, harness.ResultRow{Assignment: a})
	}
	return rs, nil
}

// mergeResults folds the result sets of successive shard runs: row
// ownership is disjoint, so for every row the run that executed it has
// the replicates and everyone else has none.
func mergeResults(acc, rs *harness.ResultSet) *harness.ResultSet {
	if acc == nil {
		return rs
	}
	for i := range acc.Rows {
		if i < len(rs.Rows) && len(rs.Rows[i].Reps) > len(acc.Rows[i].Reps) {
			acc.Rows[i] = rs.Rows[i]
		}
	}
	return acc
}
