package warehouse

import "repro/internal/obs"

// metrics holds the warehouse's instruments. The series are documented
// in docs/OBSERVABILITY.md; names are part of the stability contract.
type metrics struct {
	ingestRecords *obs.Counter   // warehouse_ingest_records_total
	ingestRuns    *obs.Counter   // warehouse_ingest_runs_total
	ingestSeconds *obs.Histogram // warehouse_ingest_seconds
	indexCommits  *obs.Counter   // warehouse_index_commits_total
	openSeconds   *obs.Histogram // warehouse_open_seconds
	queries       *obs.Counter   // warehouse_queries_total
	querySeconds  *obs.Histogram // warehouse_query_seconds
}

// newMetrics registers (get-or-create) the warehouse instruments in reg.
func newMetrics(reg *obs.Registry) *metrics {
	return &metrics{
		ingestRecords: reg.Counter("warehouse_ingest_records_total",
			"Records aggregated into the warehouse index by catalog ingest."),
		ingestRuns: reg.Counter("warehouse_ingest_runs_total",
			"Source stores (runs) ingested or re-ingested into the warehouse index."),
		ingestSeconds: reg.Histogram("warehouse_ingest_seconds",
			"Time to read one source store end to end and aggregate it, in seconds; one observation per ingested source.", obs.DefBuckets),
		indexCommits: reg.Counter("warehouse_index_commits_total",
			"Commits to the warehouse index file, one write and one fsync each: a Refresh lands the runs it has ingested in one, a Prune its tombstones."),
		openSeconds: reg.Histogram("warehouse_open_seconds",
			"Time to replay the index file when a warehouse is opened, in seconds; one observation per Open.", obs.DefBuckets),
		queries: reg.Counter("warehouse_queries_total",
			"Warehouse queries answered, across every surface (library, CLI, collector)."),
		querySeconds: reg.Histogram("warehouse_query_seconds",
			"Warehouse query latency in seconds.", obs.DefBuckets),
	}
}
