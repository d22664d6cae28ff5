package main

import (
	"context"
	"fmt"
	"io"

	"repro"
	"repro/internal/config"
)

// serveCmd is the serve subcommand: it maps the collector.* properties
// onto a repro.ServeConfig and runs the collector daemon until the
// process is interrupted (Ctrl-C / SIGTERM cancel the context; the
// daemon drains in-flight ingests and closes its stores).
func serveCmd(ctx context.Context, w io.Writer, props *config.Properties) error {
	dir := props.GetOr("collector.dir", "")
	if dir == "" {
		return fmt.Errorf("serve needs -Dcollector.dir=DIR (the directory the experiment stores live in)")
	}
	cfg := repro.ServeConfig{
		Addr:     props.GetOr("collector.addr", ""),
		Dir:      dir,
		Baseline: props.GetOr("collector.baseline", ""),
		Token:    props.GetOr("collector.token", ""),
		LogLevel: props.GetOr("collector.log", ""),
		Ready: func(addr string) {
			fmt.Fprintf(w, "collector listening on %s, store dir %s\n", addr, dir)
		},
	}
	var err error
	if props.GetOr("collector.shards", "") != "" {
		if cfg.Shards, err = props.GetInt("collector.shards"); err != nil {
			return err
		}
		if cfg.Shards < 1 {
			return fmt.Errorf("collector.shards = %d, need >= 1", cfg.Shards)
		}
	}
	if props.GetOr("collector.ttl", "") != "" {
		if cfg.LeaseTTL, err = props.GetDuration("collector.ttl"); err != nil {
			return err
		}
	}
	if props.GetOr("collector.inflight", "") != "" {
		n, err := props.GetInt("collector.inflight")
		if err != nil {
			return err
		}
		if n < 1 {
			return fmt.Errorf("collector.inflight = %d, need >= 1 (bytes)", n)
		}
		cfg.MaxInflight = int64(n)
	}
	return repro.Serve(ctx, cfg)
}

// workCmd is the work subcommand: one worker of a collector fleet. The
// sched.* properties configure the per-shard scheduler exactly as they
// do for `perfeval run`; worker.* properties name the worker and its
// spool.
func workCmd(ctx context.Context, w io.Writer, props *config.Properties, ids []string) error {
	cfg, err := buildWorkConfig(props)
	if err != nil {
		return err
	}
	if ids[0] == "all" {
		ids = nil
		for _, e := range repro.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		out, err := repro.Work(ctx, id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		r := out.Result
		fmt.Fprintf(w, "=== %s (slides %s): %s ===\n\n%s\n", r.ID, r.Slides, r.Title, r.Text)
		fmt.Fprintf(w, "%s\n\n", out.Report)
	}
	return nil
}

// metricsCmd is the metrics subcommand: it polls a running collector
// daemon's GET /v1/metrics endpoint and prints the snapshot —
// Prometheus text format by default, JSON with -Dmetrics.format=json.
func metricsCmd(ctx context.Context, w io.Writer, props *config.Properties) error {
	url := props.GetOr("collector.url", "")
	if url == "" {
		return fmt.Errorf("metrics needs -Dcollector.url=URL (the collector's base URL, e.g. http://host:8080)")
	}
	format := props.GetOr("metrics.format", "")
	switch format {
	case "", "prometheus", "text", "json":
	default:
		return fmt.Errorf("metrics.format = %q, want prometheus or json", format)
	}
	body, err := repro.FetchMetrics(ctx, url, format)
	if err != nil {
		return err
	}
	fmt.Fprint(w, body)
	if body != "" && body[len(body)-1] != '\n' {
		fmt.Fprintln(w)
	}
	return nil
}

// buildWorkConfig maps the collector.url, worker.*, and sched.*
// properties onto a repro.WorkConfig.
func buildWorkConfig(props *config.Properties) (repro.WorkConfig, error) {
	cfg := repro.WorkConfig{
		URL:      props.GetOr("collector.url", ""),
		Name:     props.GetOr("worker.name", ""),
		SpoolDir: props.GetOr("worker.spool", ""),
		Token:    props.GetOr("worker.token", ""),
		LogLevel: props.GetOr("collector.log", ""),
	}
	if cfg.URL == "" {
		return cfg, fmt.Errorf("work needs -Dcollector.url=URL (the collector's base URL, e.g. http://host:8080)")
	}
	var err error
	if props.GetOr("worker.binary", "") != "" {
		if cfg.BinaryWire, err = props.GetBool("worker.binary"); err != nil {
			return cfg, err
		}
	}
	if props.GetOr("sched.workers", "") != "" {
		if cfg.Workers, err = props.GetInt("sched.workers"); err != nil {
			return cfg, err
		}
		if cfg.Workers < 1 {
			return cfg, fmt.Errorf("sched.workers = %d, need >= 1", cfg.Workers)
		}
	}
	if props.GetOr("sched.retries", "") != "" {
		if cfg.Retries, err = props.GetInt("sched.retries"); err != nil {
			return cfg, err
		}
	}
	if props.GetOr("sched.timeout", "") != "" {
		if cfg.Timeout, err = props.GetDuration("sched.timeout"); err != nil {
			return cfg, err
		}
	}
	return cfg, nil
}
