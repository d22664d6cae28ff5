package main

import (
	"context"
	"fmt"
	"io"

	"repro"
)

// serveCmd is the serve subcommand: it runs the collector daemon the
// collector.* properties describe until the process is interrupted
// (Ctrl-C / SIGTERM cancel the context; the daemon drains in-flight
// ingests and closes its stores).
func serveCmd(ctx context.Context, w io.Writer, o *opts, _ []string) error {
	cfg := o.serve
	cfg.LogLevel = o.logLevel
	cfg.Ready = func(addr string) {
		fmt.Fprintf(w, "collector listening on %s, store dir %s\n", addr, cfg.Dir)
	}
	return repro.Serve(ctx, cfg)
}

// workCmd is the work subcommand: one worker of a collector fleet. The
// sched.* properties configure the per-shard scheduler exactly as they
// do for `perfeval run`; worker.* properties name the worker and its
// spool.
func workCmd(ctx context.Context, w io.Writer, o *opts, ids []string) error {
	cfg := o.work
	cfg.Workers, cfg.Retries, cfg.Timeout, cfg.LogLevel = o.run.Workers, o.run.Retries, o.run.Timeout, o.logLevel
	for _, id := range expand(ids) {
		out, err := repro.Work(ctx, id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		printArtifact(w, out.Result)
		fmt.Fprintf(w, "%s\n\n", out.Report)
	}
	return nil
}

// metricsCmd is the metrics subcommand: it polls a running collector
// daemon's GET /v1/metrics endpoint and prints the snapshot —
// Prometheus text format by default, JSON with -Dmetrics.format=json;
// the daemon rejects any other format.
func metricsCmd(ctx context.Context, w io.Writer, o *opts, _ []string) error {
	body, err := repro.FetchMetrics(ctx, o.work.URL, o.metricsFormat)
	if err != nil {
		return err
	}
	fmt.Fprint(w, body)
	if body != "" && body[len(body)-1] != '\n' {
		fmt.Fprintln(w)
	}
	return nil
}
