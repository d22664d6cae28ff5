package repro

import (
	"context"
	"fmt"
	"io"
	"net/http"

	"repro/internal/collector"
	"repro/internal/obs"
)

// Metrics is a point-in-time snapshot of the self-measurement layer
// (internal/obs): every counter, gauge, and histogram the scheduler,
// runstore, and collector registered, sorted by name. It marshals
// directly to the JSON exposition format and renders the Prometheus
// text format via WritePrometheus. docs/OBSERVABILITY.md catalogs the
// metric names and their stability policy.
type Metrics = obs.Snapshot

// MetricsSnapshot snapshots the process-wide metrics registry: what the
// process's stores (runstore_*), warehouse queries and an in-process
// collector daemon accumulated so far. Run and Work give each call a
// registry of its own, so their sched_* and worker_* series are not
// included; they ride on Outcome.Metrics and WorkReport.Metrics instead.
func MetricsSnapshot() Metrics { return obs.Default().Snapshot() }

// FetchMetrics polls a running collector daemon's GET /v1/metrics
// endpoint and returns the response body: Prometheus text format for
// format "" / "prometheus" / "text", the JSON exposition for "json".
// It is the engine of `perfeval metrics`.
func FetchMetrics(ctx context.Context, url, format string) (string, error) {
	u := url + collector.PathMetrics
	if format != "" {
		u += "?format=" + format
	}
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		return "", fmt.Errorf("repro: metrics request: %w", err)
	}
	resp, err := http.DefaultClient.Do(req)
	if err != nil {
		return "", fmt.Errorf("repro: fetching metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(io.LimitReader(resp.Body, 16<<20))
	if err != nil {
		return "", fmt.Errorf("repro: reading metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return "", fmt.Errorf("repro: metrics endpoint answered %s: %s", resp.Status, body)
	}
	return string(body), nil
}
