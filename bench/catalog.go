package main

// metricDef is one end-to-end metric: what a user of the system sees.
// Bound is the share of the parent commit's median by which the metric
// may worsen before a change counts as a regression.
type metricDef struct {
	Name   string  `json:"name"`
	Unit   string  `json:"unit"`
	Better string  `json:"better"`
	Bound  float64 `json:"bound"`
}

// endToEnd is the catalogue every later issue quotes. Each metric is
// defined — and non-zero — on every workload; bench/README.md says what
// it means on each.
//
// Durations are reported at the reference machine's speed (probe.go). So
// converted, the time-based metrics of ten runs spread by 1 to 5 % of
// their median on a calm machine and by 2 to 12 % on one that drifts by a
// factor of two meanwhile, where the clock's own readings spread by 6 to
// 48 % (README.md, "A/A"). Every check the driver makes is a chance to
// fail on noise alone, so the time-based bounds stay at the contract's
// ceiling; bytes_per_record is a count and keeps a 1 % bound. The tail of
// the operation's latency is reported (bench.op_ms_p99) but not gated:
// over ten runs it spread by 13 to 35 % as clocked, 7 to 17 % converted.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"records_per_s", "records/s", "higher", 0.25},
	{"resume_s", "s", "lower", 0.25},
	{"op_ms_p50", "ms", "lower", 0.25},
	{"bytes_per_record", "B", "lower", 0.01},
}

// traced is the account of one traced repetition, the input every
// per-layer metric is computed from.
type traced struct {
	sample  sample
	callers int
	budget  profile // spans under the repetition root: the timed section
	all     profile // every span of the repetition
	*meter          // process, store, product and extra: what the instruments counted
}

func (t *traced) busy(name string) float64  { return t.all.busy[name] }
func (t *traced) count(name string) float64 { return t.all.count[name] }

// perRecord divides by the records the timed section carried.
func (t *traced) perRecord(v float64) float64 { return v / float64(t.sample.records) }

// workerSeconds is what the timed section had to spend: wall × callers.
func (t *traced) workerSeconds() float64 { return t.sample.wall.Seconds() * float64(t.callers) }

// attributed is the self time of every span under the repetition root,
// the root itself excluded: the part of workerSeconds an instrument saw.
func (t *traced) attributed() float64 {
	var total float64
	for name, self := range t.budget.self {
		if name != rootSpan {
			total += self
		}
	}
	return total
}

// layerDef is one per-layer metric. Exactly one source is set: scalar
// (computed per traced repetition, the run reports the median), span
// (a percentile over that span name's durations pooled across traced
// repetitions, scaled to the unit), or neither — a run-level value the
// main loop fills in.
type layerDef struct {
	name, unit, better string
	scalar             func(t *traced) float64
	span               string
	pct, scale         float64
}

// def is the metric as the result document names it; a per-layer metric
// has no bound.
func (d layerDef) def() metricDef { return metricDef{Name: d.name, Unit: d.unit, Better: d.better} }

// longest is the largest of ds, 0 when there is none.
func longest(ds []float64) float64 {
	var m float64
	for _, d := range ds {
		m = max(m, d)
	}
	return m
}

const (
	toMS = 1e3
	toUS = 1e6
)

// perLayer lists, outside in, what each module did on a record's
// journey. Every workload emits every name; a layer a workload never
// enters reads 0, which is itself the prediction "nothing here moves
// that workload".
var perLayer = []layerDef{
	// harness: the synthetic runner, the floor under local-run and fleet-collect.
	{name: "harness.runner_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("harness.runner") }},
	{name: "harness.runner_calls", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.count("harness.runner") }},

	// sched
	{name: "sched.execute_wall_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("sched.execute") }},
	{name: "sched.overhead_us_per_unit", unit: "us", better: "lower", scalar: func(t *traced) float64 {
		n := t.count("harness.runner")
		if t.count("sched.execute") == 0 || n == 0 {
			return 0
		}
		spent := t.busy("sched.execute")*float64(t.callers) - t.busy("harness.runner") - t.busy("runstore.append")
		return spent / n * toUS
	}},
	{name: "sched.replay_wall_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("sched.replay") }},
	{name: "sched.units_executed", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.extra["sched.units_executed"] }},
	{name: "sched.units_replayed", unit: "count", better: "higher", scalar: func(t *traced) float64 { return t.extra["sched.units_replayed"] }},

	// runstore, write side
	{name: "runstore.append_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("runstore.append") }},
	{name: "runstore.append_count", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.store["runstore_appends_total"] }},
	{name: "runstore.append_us_p50", unit: "us", better: "lower", span: "runstore.append", pct: 50, scale: toUS},
	{name: "runstore.append_us_p99", unit: "us", better: "lower", span: "runstore.append", pct: 99, scale: toUS},
	{name: "runstore.fsyncs", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.store["runstore_fsyncs_total"] }},
	{name: "runstore.fsyncs_per_record", unit: "ratio", better: "lower", scalar: func(t *traced) float64 { return t.perRecord(t.store["runstore_fsyncs_total"]) }},
	{name: "runstore.append_bytes_per_record", unit: "B", better: "lower", scalar: func(t *traced) float64 {
		if t.store["runstore_appends_total"] == 0 {
			return 0
		}
		return t.store["runstore_append_bytes_total"] / t.store["runstore_appends_total"]
	}},

	// runstore, read and rewrite side
	{name: "runstore.open_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("runstore.open") }},
	{name: "runstore.lookup_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("runstore.lookup") }},
	{name: "runstore.merge_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("runstore.merge") }},
	{name: "runstore.compact_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("runstore.compact") }},
	{name: "runstore.scan_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("runstore.scan") }},
	{name: "runstore.merge_dropped_records", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.extra["runstore.merge_dropped_records"] }},
	{name: "runstore.encode_json_ns_per_record", unit: "ns", better: "lower"},
	{name: "runstore.decode_json_ns_per_record", unit: "ns", better: "lower"},
	{name: "runstore.encode_binary_ns_per_record", unit: "ns", better: "lower"},
	{name: "runstore.decode_binary_ns_per_record", unit: "ns", better: "lower"},

	// archivestore: space, write cost and read cost trade, so all three.
	{name: "archivestore.convert_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("archivestore.convert") }},
	{name: "archivestore.open_s", unit: "s", better: "lower", scalar: func(t *traced) float64 {
		// Per call: a repetition opens the archive once per cold read.
		if t.count("archivestore.open") == 0 {
			return 0
		}
		return t.busy("archivestore.open") / t.count("archivestore.open")
	}},
	{name: "archivestore.lookup_us_p50", unit: "us", better: "lower", span: "archivestore.lookup", pct: 50, scale: toUS},
	{name: "archivestore.scan_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("archivestore.scan") }},
	{name: "archivestore.bytes_per_record", unit: "B", better: "lower", scalar: func(t *traced) float64 { return t.extra["archivestore.bytes_per_record"] }},
	{name: "archivestore.z_convert_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("archivestore.z_convert") }},
	{name: "archivestore.z_bytes_per_record", unit: "B", better: "lower", scalar: func(t *traced) float64 { return t.extra["archivestore.z_bytes_per_record"] }},

	// client: worker, spool, HTTP transport
	{name: "client.execute_wall_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return longest(t.all.durs["client.execute"]) }},
	{name: "client.ingest_posts", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.count("client.http_ingest") }},
	{name: "client.ingest_rtt_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("client.http_ingest") }},
	{name: "client.ingest_rtt_ms_p50", unit: "ms", better: "lower", span: "client.http_ingest", pct: 50, scale: toMS},
	{name: "client.ingest_rtt_ms_p99", unit: "ms", better: "lower", span: "client.http_ingest", pct: 99, scale: toMS},
	{name: "client.lease_rtt_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("client.http_lease") }},
	{name: "client.non_http_s", unit: "s", better: "lower", scalar: func(t *traced) float64 {
		// What the workers (client.execute) or the streaming clients
		// (client.ingest, client.lease) spent outside a round trip: spool
		// fsync, scheduling and wire encoding.
		calls := t.busy("client.execute") + t.busy("client.ingest") + t.busy("client.lease")
		if calls == 0 {
			return 0
		}
		return calls - t.busy("client.http_ingest") - t.busy("client.http_lease")
	}},
	{name: "client.spool_records", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.product["worker_spool_records_total"] }},
	{name: "client.backpressure_waits", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.product["worker_backpressure_waits_total"] }},
	{name: "client.transport_retries", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.product["worker_transport_retries_total"] }},

	// collector: daemon ingest, group commit, leases
	{name: "collector.ingest_handler_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("collector.handle_ingest") }},
	{name: "collector.ingest_handler_ms_p50", unit: "ms", better: "lower", span: "collector.handle_ingest", pct: 50, scale: toMS},
	{name: "collector.ingest_handler_ms_p99", unit: "ms", better: "lower", span: "collector.handle_ingest", pct: 99, scale: toMS},
	{name: "collector.lease_handler_busy_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("collector.handle_lease") }},
	{name: "collector.group_commits", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.product["collector_group_commits_total"] }},
	{name: "collector.fsync_coalesced", unit: "count", better: "higher", scalar: func(t *traced) float64 { return t.product["collector_fsync_coalesced_total"] }},
	{name: "collector.records_per_commit", unit: "records", better: "higher", scalar: func(t *traced) float64 {
		if t.product["collector_group_commits_total"] == 0 {
			return 0
		}
		return t.product["collector_ingest_records_total"] / t.product["collector_group_commits_total"]
	}},
	{name: "collector.commit_wait_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.product["collector_commit_seconds"] }},
	{name: "collector.ingest_rejected", unit: "count", better: "lower", scalar: func(t *traced) float64 { return t.product["collector_ingest_rejected_total"] }},
	{name: "collector.http_transport_s", unit: "s", better: "lower", scalar: func(t *traced) float64 {
		return t.busy("client.http_ingest") + t.busy("client.http_lease") - t.busy("collector.handle_ingest") - t.busy("collector.handle_lease")
	}},

	// warehouse
	{name: "warehouse.open_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("warehouse.open") }},
	{name: "warehouse.cold_refresh_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.busy("warehouse.cold_refresh") }},
	{name: "warehouse.refresh_unchanged_ms", unit: "ms", better: "lower", scalar: func(t *traced) float64 { return t.busy("warehouse.refresh_unchanged") * toMS }},
	{name: "warehouse.refresh_incremental_ms_p50", unit: "ms", better: "lower", span: "warehouse.refresh_incremental", pct: 50, scale: toMS},
	{name: "warehouse.stat_skip_ratio", unit: "ratio", better: "higher", scalar: func(t *traced) float64 { return t.extra["warehouse.stat_skip_ratio"] }},
	{name: "warehouse.query_runs_ms_p50", unit: "ms", better: "lower", span: "warehouse.query_runs", pct: 50, scale: toMS},
	{name: "warehouse.query_history_ms_p50", unit: "ms", better: "lower", span: "warehouse.query_history", pct: 50, scale: toMS},
	{name: "warehouse.query_trends_ms_p50", unit: "ms", better: "lower", span: "warehouse.query_trends", pct: 50, scale: toMS},
	{name: "warehouse.query_regressions_ms_p50", unit: "ms", better: "lower", span: "warehouse.query_regressions", pct: 50, scale: toMS},
	{name: "warehouse.index_bytes", unit: "B", better: "lower", scalar: func(t *traced) float64 { return t.extra["warehouse.index_bytes"] }},

	// process: CPU and allocation hidden behind fsync waits
	{name: "process.cpu_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.process.cpu.Seconds() }},
	{name: "process.alloc_bytes_per_record", unit: "B", better: "lower", scalar: func(t *traced) float64 { return t.perRecord(float64(t.process.allocs)) }},
	{name: "process.gc_cycles", unit: "count", better: "lower", scalar: func(t *traced) float64 { return float64(t.process.gcs) }},

	// bench: does the budget close?
	{name: "bench.unattributed_s", unit: "s", better: "lower", scalar: func(t *traced) float64 { return t.workerSeconds() - t.attributed() }},
	{name: "bench.unattributed_ratio", unit: "ratio", better: "lower", scalar: func(t *traced) float64 { return 1 - t.attributed()/t.workerSeconds() }},
	{name: "bench.trace_overhead_ratio", unit: "ratio", better: "lower"},

	// bench: what the gate does not hold but a reader wants beside it. The
	// per-layer metrics above are the clock's own readings; machine_speed
	// converts them to the reference machine's (multiply a duration by it).
	{name: "bench.op_ms_p99", unit: "ms", better: "lower"},
	{name: "bench.machine_speed", unit: "ratio", better: "higher", scalar: func(t *traced) float64 { return t.sample.speed }},
}

// rootSpan names the span that covers a repetition's timed section.
const rootSpan = "bench.rep"
