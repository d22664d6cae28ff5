package client

import (
	"io"
	"log/slog"

	"repro/internal/obs"
)

// clientMetrics holds the worker-side instruments, resolved once per
// Client so the ingest loop never touches the registry.
type clientMetrics struct {
	streamed    *obs.Counter
	ingestBytes *obs.Counter
	batches     *obs.Counter
	waits       *obs.Counter
	waitMs      *obs.Counter
	spooled     *obs.Counter
	retries     *obs.Counter
}

// newClientMetrics registers the worker series in r.
func newClientMetrics(r *obs.Registry) *clientMetrics {
	return &clientMetrics{
		streamed: r.Counter("worker_records_streamed_total",
			"Records acknowledged by the collector's ingest endpoint."),
		ingestBytes: r.Counter("worker_ingest_bytes_total",
			"Wire bytes of acknowledged ingest batches."),
		batches: r.Counter("worker_ingest_batches_total",
			"Ingest batches acknowledged by the collector."),
		waits: r.Counter("worker_backpressure_waits_total",
			"Ingest attempts refused with 429 that the client waited out."),
		waitMs: r.Counter("worker_backpressure_wait_ms_total",
			"Total milliseconds spent honoring Retry-After hints."),
		spooled: r.Counter("worker_spool_records_total",
			"Records committed to the local spool journal, side by side with their ingest."),
		retries: r.Counter("worker_transport_retries_total",
			"Requests re-sent after a transport error (a restarting or unreachable daemon)."),
	}
}

// discardLogger is the nil-Logger default: structure without output.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// SetMetrics re-registers the client's instruments in r (nil restores
// the process default). Call before any request; the worker wires this
// from Options.Metrics.
func (c *Client) SetMetrics(r *obs.Registry) {
	if r == nil {
		r = obs.Default()
	}
	c.met = newClientMetrics(r)
}

// SetLogger replaces the client's structured logger (nil discards).
func (c *Client) SetLogger(l *slog.Logger) {
	if l == nil {
		l = discardLogger()
	}
	c.log = l
}
