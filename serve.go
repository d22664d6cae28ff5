package repro

import (
	"context"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"net"
	"net/http"
	"os"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/paperexp"
)

// ServeConfig is the typed form of everything `perfeval serve` exposes
// as -D flags: the run collector daemon (internal/collector) — a
// long-lived HTTP service that owns the experiment stores and collects
// streamed records from a fleet of workers (Work, `perfeval work`).
type ServeConfig struct {
	// Addr is the TCP listen address (e.g. ":8080"); ":0" picks a free
	// port, reported through Ready. Empty means ":8080".
	Addr string
	// Dir is the directory the per-experiment shard stores live in.
	// Required.
	Dir string
	// Shards is how many lease-able shards each experiment's design is
	// partitioned into — the fleet's maximum useful size; < 1 means 1.
	Shards int
	// LeaseTTL is how long a shard lease lives between renewals; a worker
	// silent for longer loses the shard to the pool. 0 means 30s.
	LeaseTTL time.Duration
	// MaxInflight bounds each experiment's concurrently ingesting bytes
	// (backpressure; 429 + Retry-After beyond it). 0 means 8 MiB.
	MaxInflight int64
	// Baseline optionally names a baseline store file; it arms the
	// GET /v1/status/gate endpoint with regression verdicts.
	Baseline string
	// Token, when non-empty, requires `Authorization: Bearer <Token>` on
	// every data-plane endpoint (register, lease traffic, ingest,
	// snapshot); read-only status and metrics stay open. Workers supply
	// the same value through WorkConfig.Token. It is the
	// -Dcollector.token knob.
	Token string
	// Ready, when non-nil, is called exactly once with the bound listen
	// address, after the listener is open and before serving begins.
	Ready func(addr string)
	// LogLevel selects the daemon's structured stderr log: "debug",
	// "info" (also the "" default), or "quiet" to discard. Any other
	// value is an error. It is the -Dcollector.log knob.
	LogLevel string
}

// buildLogger maps a -Dcollector.log level to a structured stderr
// logger ("quiet" discards).
func buildLogger(level string) (*slog.Logger, error) {
	switch level {
	case "quiet":
		return slog.New(slog.NewTextHandler(io.Discard, nil)), nil
	case "", "info":
		return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelInfo})), nil
	case "debug":
		return slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelDebug})), nil
	default:
		return nil, fmt.Errorf("repro: unknown log level %q (want debug, info, or quiet)", level)
	}
}

// Serve runs the run collector daemon until ctx is canceled, then shuts
// down gracefully: in-flight ingests drain (their records are durable)
// and the shard stores close. A canceled ctx is the normal way to stop
// a collector, so Serve returns nil for it; any other serve failure is
// returned as the error.
//
// The wire protocol — registration, lease acquire/renew/release,
// NDJSON record ingest with backpressure, warm-start snapshots, and
// read-only status — is documented in docs/COLLECTOR.md.
func Serve(ctx context.Context, cfg ServeConfig) error {
	addr := cfg.Addr
	if addr == "" {
		addr = ":8080"
	}
	logger, err := buildLogger(cfg.LogLevel)
	if err != nil {
		return err
	}
	srv, err := collector.New(collector.Config{
		Dir:         cfg.Dir,
		Shards:      cfg.Shards,
		LeaseTTL:    cfg.LeaseTTL,
		MaxInflight: cfg.MaxInflight,
		Baseline:    cfg.Baseline,
		Token:       cfg.Token,
		Logger:      logger,
	})
	if err != nil {
		return err
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		srv.Close()
		return fmt.Errorf("repro: collector listen: %w", err)
	}
	if cfg.Ready != nil {
		cfg.Ready(ln.Addr().String())
	}
	hs := &http.Server{Handler: srv}
	errc := make(chan error, 1)
	go func() { errc <- hs.Serve(ln) }()
	select {
	case <-ctx.Done():
		shutdownCtx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		hs.Shutdown(shutdownCtx)
		<-errc // Serve has returned http.ErrServerClosed
		return srv.Close()
	case err := <-errc:
		srv.Close()
		if errors.Is(err, http.ErrServerClosed) {
			return nil
		}
		return fmt.Errorf("repro: collector serve: %w", err)
	}
}

// WorkConfig is the typed form of everything `perfeval work` exposes as
// -D flags: one worker of a collector fleet.
type WorkConfig struct {
	// URL is the collector's base URL (e.g. "http://host:8080").
	// Required.
	URL string
	// Name names this worker in leases and status output; empty asks the
	// server to assign one.
	Name string
	// Workers, Retries, Timeout configure the per-shard scheduler,
	// exactly as RunConfig does for a local run.
	Workers int
	Retries int
	Timeout time.Duration
	// SpoolDir is where the worker's local spool journals are written
	// (its durable account of what it ran — a valid, merge-able runstore
	// journal even after a crash); empty means a fresh temporary
	// directory.
	SpoolDir string
	// BinaryWire streams ingest uploads (and asks for warm-start
	// snapshots) in the binary wire framing instead of the NDJSON
	// default. The framing is negotiated per request by media type, so
	// the flag is safe against any collector — a JSON-only server simply
	// answers in JSON. It is the -Dworker.binary knob.
	BinaryWire bool
	// Token is the collector's shared bearer token, sent on every
	// request; required when the daemon was started with
	// ServeConfig.Token. It is the -Dworker.token knob.
	Token string
	// LogLevel selects the worker's structured stderr log: "debug",
	// "info" (also the "" default), or "quiet" to discard. It is the
	// -Dcollector.log knob of `perfeval work`.
	LogLevel string
}

// WorkReport accounts for what one worker contributed to the fleet.
type WorkReport struct {
	Shards   int   // shard leases run to completion
	Executed int   // units executed live on this worker
	Replayed int   // units replayed from warm-start snapshots or spool
	Streamed int64 // records acknowledged by the collector
	// Metrics snapshots this call's own worker registry after the run:
	// the sched_* series of its per-shard schedulers and the worker_*
	// ingest/backpressure series, counting this call alone.
	Metrics *Metrics
}

// String renders the one-line account `perfeval work` prints after each
// experiment.
func (r WorkReport) String() string {
	return fmt.Sprintf("collector worker: completed %d shard(s); %d unit(s) executed, %d replayed, %d record(s) streamed",
		r.Shards, r.Executed, r.Replayed, r.Streamed)
}

// WorkOutcome is one experiment worked against a collector: the
// artifact as this worker saw it (rows other workers owned carry no
// replicates — the complete dataset is the collector's store) and the
// worker's contribution accounting.
type WorkOutcome struct {
	Result *Result
	Report WorkReport
}

// Work runs the experiment driver with the given id (t1..t10, f1..f7,
// case-insensitive) as one worker of a collector fleet: it leases
// shards of each harness experiment the driver executes from the
// collector at cfg.URL, runs them through the concurrent scheduler, and
// streams completed records back, until the collector reports the
// experiment complete. Every guarantee of the local sharded workflow
// carries over — the collector's merged store is byte-identical to a
// single-process run.
//
// On lease loss (the collector timed this worker out and handed its
// shard to another) or a server-reported conflict, Work stops cleanly
// with the cause; the local spool journal is valid and the records the
// server acknowledged warm-start the shard's next owner. Cancel ctx to
// interrupt with the same contract.
func Work(ctx context.Context, id string, cfg WorkConfig) (*WorkOutcome, error) {
	if err := checkScheduler(cfg.Workers, cfg.Retries, cfg.Timeout); err != nil {
		return nil, err
	}
	logger, err := buildLogger(cfg.LogLevel)
	if err != nil {
		return nil, err
	}
	w, err := client.NewWorker(client.Options{
		URL:        cfg.URL,
		Worker:     cfg.Name,
		Workers:    cfg.Workers,
		Retries:    cfg.Retries,
		Timeout:    cfg.Timeout,
		SpoolDir:   cfg.SpoolDir,
		BinaryWire: cfg.BinaryWire,
		Token:      cfg.Token,
		Metrics:    obs.NewRegistry(),
		Logger:     logger,
	})
	if err != nil {
		return nil, err
	}
	r, err := paperexp.Run(harness.WithExecutor(ctx, w), id)
	if err != nil {
		return nil, err
	}
	rep := w.Report()
	met := w.MetricsSnapshot()
	return &WorkOutcome{
		Result: r,
		Report: WorkReport{
			Shards:   rep.Shards,
			Executed: rep.Executed,
			Replayed: rep.Replayed,
			Streamed: rep.Streamed,
			Metrics:  &met,
		},
	}, nil
}
