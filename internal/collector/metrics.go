package collector

import (
	"net/http"
	"strings"

	"repro/internal/obs"
)

// serverMetrics holds the daemon's instruments, resolved once in New so
// handlers never touch the registry on the hot path.
type serverMetrics struct {
	ingestRecords  *obs.Counter
	ingestBytes    *obs.Counter
	ingestReject   *obs.Counter
	leaseAcquired  *obs.Counter
	leaseRenewed   *obs.Counter
	leaseReleased  *obs.Counter
	leaseExpired   *obs.Counter
	groupCommits   *obs.Counter
	fsyncCoalesced *obs.Counter
	stateErrors    *obs.Counter
	commitSeconds  *obs.Histogram
	acquireHeld    *obs.Histogram
	workers        *obs.Gauge
	inflightBytes  *obs.Gauge
	epoch          *obs.Gauge
}

// newServerMetrics registers the collector series in r.
func newServerMetrics(r *obs.Registry) *serverMetrics {
	return &serverMetrics{
		ingestRecords: r.Counter("collector_ingest_records_total",
			"Records durably appended by the ingest endpoint."),
		ingestBytes: r.Counter("collector_ingest_bytes_total",
			"Request body bytes admitted by the ingest endpoint."),
		ingestReject: r.Counter("collector_ingest_rejected_total",
			"Ingest requests refused with 429 by the in-flight byte budget."),
		leaseAcquired: r.Counter("collector_lease_acquired_total",
			"Shard leases granted."),
		leaseRenewed: r.Counter("collector_lease_renewed_total",
			"Lease renewals granted."),
		leaseReleased: r.Counter("collector_lease_released_total",
			"Leases released by their workers (complete or abandoned)."),
		leaseExpired: r.Counter("collector_lease_expired_total",
			"Leases reclaimed by TTL expiry — dead-worker shard handoffs."),
		groupCommits: r.Counter("collector_group_commits_total",
			"Group commits landed by the group-commit engine (one fsync each per shard journal touched)."),
		fsyncCoalesced: r.Counter("collector_fsync_coalesced_total",
			"Fsyncs avoided by group commit: ingest batches that shared another batch's fsync."),
		stateErrors: r.Counter("collector_state_errors_total",
			"Control-state journal appends that failed (daemon kept serving; restart fidelity degraded)."),
		commitSeconds: r.Histogram("collector_commit_seconds",
			"Ingest batch commit latency: submit to the group-commit engine until its fsync returned.",
			obs.DefBuckets),
		acquireHeld: r.Histogram("collector_acquire_held_seconds",
			"How long an acquire that found every incomplete shard leased was kept before it was answered (granted, complete, 409, or its client gone); acquires answered at once are not observed.",
			obs.DefBuckets),
		workers: r.Gauge("collector_workers",
			"Workers that have registered with this daemon."),
		inflightBytes: r.Gauge("collector_inflight_bytes",
			"Ingest bytes admitted but not yet fully appended, across experiments."),
		epoch: r.Gauge("collector_epoch",
			"This daemon's incarnation number from the control-state journal."),
	}
}

// handleMetrics serves the server's registry: Prometheus text format by
// default (Content-Type: text/plain; version=0.0.4), JSON when the
// request asks via ?format=json or Accept: application/json. The
// endpoint is read-only and holds no lock beyond the snapshot copy, so
// scraping cannot stall ingest.
func (s *Server) handleMetrics(w http.ResponseWriter, r *http.Request) {
	snap := s.reg.Snapshot()
	format := r.URL.Query().Get("format")
	if format == "" && strings.Contains(r.Header.Get("Accept"), "application/json") {
		format = "json"
	}
	switch format {
	case "", "prometheus", "text":
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		snap.WritePrometheus(w)
	case "json":
		writeJSON(w, http.StatusOK, snap)
	default:
		writeError(w, http.StatusBadRequest, "collector: unknown metrics format "+format+" (want prometheus or json)")
	}
}
