package sched

import "repro/internal/obs"

// schedMetrics holds the scheduler's instruments, resolved once at
// construction so the hot path never touches the registry. A nil
// *schedMetrics disables instrumentation entirely — that is how the
// overhead benchmark measures the uninstrumented baseline — so every
// call site guards with a nil check.
type schedMetrics struct {
	executed    *obs.Counter
	replayed    *obs.Counter
	retried     *obs.Counter
	timedout    *obs.Counter
	skipped     *obs.Counter
	adaptGrow   *obs.Counter
	adaptStop   *obs.Counter
	queueDepth  *obs.Gauge
	unitSeconds *obs.Histogram
	// One commit is one append call the persist stage made: an
	// AppendBatch, or an Append on a store without a batch side.
	// executed ÷ commits is records per commit.
	commits       *obs.Counter
	commitSeconds *obs.Histogram
}

// newSchedMetrics registers the scheduler series in r.
func newSchedMetrics(r *obs.Registry) *schedMetrics {
	return &schedMetrics{
		executed: r.Counter("sched_units_executed_total",
			"Work units run live by the scheduler."),
		replayed: r.Counter("sched_units_replayed_total",
			"Work units restored from the journal without execution (warm-start hits)."),
		retried: r.Counter("sched_units_retried_total",
			"Failed attempts that were retried."),
		timedout: r.Counter("sched_units_timedout_total",
			"Attempts abandoned by the per-attempt timeout."),
		skipped: r.Counter("sched_units_skipped_total",
			"Units owned by other shards of a sharded run."),
		adaptGrow: r.Counter("sched_adaptive_continue_total",
			"Controller decisions that grew a cell by another batch."),
		adaptStop: r.Counter("sched_adaptive_stop_total",
			"Controller decisions that stopped a cell."),
		queueDepth: r.Gauge("sched_queue_depth",
			"Work units queued but not yet picked up by a worker."),
		unitSeconds: r.Histogram("sched_unit_seconds",
			"Per-unit wall-clock latency including retries.", nil),
		commits: r.Counter("sched_commits_total",
			"Append calls made by the persist stage: one per batch, or per unit on a store without a batch path."),
		commitSeconds: r.Histogram("sched_commit_seconds",
			"From a commit's first unit leaving its runner to the append covering it returning.", nil),
	}
}
