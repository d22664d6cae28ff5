package repro

import (
	"time"

	"repro/internal/warehouse"
)

// QueryResult is a warehouse query's answer — one of the payload slices
// is populated, matching its Kind. The JSON form is exactly the body
// a collector daemon serves on GET /v1/query: both surfaces run the
// same internal query core, so they cannot drift.
type QueryResult = warehouse.Result

// WarehouseRun is one indexed run's summary.
type WarehouseRun = warehouse.Run

// RefreshStats reports what one warehouse catalog refresh did.
type RefreshStats = warehouse.RefreshStats

// PruneStats reports what one warehouse retention prune did.
type PruneStats = warehouse.PruneStats

// Query kinds, the values of QueryConfig.Kind.
const (
	// QueryRuns lists the live indexed runs and their shapes.
	QueryRuns = warehouse.KindRuns
	// QueryHistory lists one design cell's aggregate per run, oldest
	// first, with confidence intervals rebuilt from the index.
	QueryHistory = warehouse.KindHistory
	// QueryTrends lists per-(experiment, response) trend lines.
	QueryTrends = warehouse.KindTrends
	// QueryRegressions lists cells whose newest run shifted against the
	// run before it under the regression gate's CI-shift rule.
	QueryRegressions = warehouse.KindRegressions
)

// QueryConfig is the typed form of everything `perfeval query` exposes
// as -D flags: one question against a result warehouse — a directory of
// finished run stores indexed by internal/warehouse.
type QueryConfig struct {
	// Dir is the warehouse root: the directory the run stores live in.
	// The index file (warehouse.idx) is created next to them on first
	// use. Required.
	Dir string
	// Kind selects the question: QueryRuns (default), QueryHistory,
	// QueryTrends, or QueryRegressions.
	Kind string
	// Experiment filters to one experiment. Every kind takes it and none
	// needs it: a history query without one lists the selected cell under
	// every experiment that has it.
	Experiment string
	// Cell selects one design cell for history queries, by assignment
	// hash or by the canonical sorted "k=v k=v" assignment string.
	Cell string
	// Response filters to one response name.
	Response string
	// Confidence for the rebuilt Student-t intervals (default 0.95).
	Confidence float64
	// Tolerance is the relative half-width assumed for single-replicate
	// cells (default 0.05) — the same knob as the regression gate's.
	Tolerance float64
	// Limit, when > 0, keeps only the newest Limit runs, history points,
	// or trend points (and caps the regression listing).
	Limit int
	// NoRefresh answers from the index alone, skipping the catalog walk
	// — the pure O(index) path. The default refreshes first, so new and
	// changed stores are picked up.
	NoRefresh bool
	// KeepRuns, when > 0, prunes the index down to the newest KeepRuns
	// runs before answering (retention policy; source files are never
	// touched). It is the -Dquery.keep knob.
	KeepRuns int
	// MaxAge, when > 0, prunes runs whose source modification time is
	// older than MaxAge before answering. It is the -Dquery.maxage knob.
	MaxAge time.Duration
}

// QueryOutcome is one warehouse query: what the maintenance passes did
// (catalog refresh, retention prune) and the answer itself.
type QueryOutcome struct {
	// Refresh accounts for the catalog refresh (zero when NoRefresh).
	Refresh RefreshStats
	// Prune accounts for the retention prune (zero when no retention
	// knob was set).
	Prune PruneStats
	// Result is the answer.
	Result *QueryResult
}

// Query asks one question against the warehouse at cfg.Dir: it opens
// (creating on first use) the warehouse index, refreshes the catalog
// incrementally unless NoRefresh, applies the retention policy if one
// is configured, and answers from the index alone — record blocks are
// only read while ingesting new or changed stores, never to answer.
func Query(cfg QueryConfig) (*QueryOutcome, error) {
	wh, err := warehouse.Open(cfg.Dir, warehouse.Options{})
	if err != nil {
		return nil, err
	}
	defer wh.Close()
	var out QueryOutcome
	if !cfg.NoRefresh {
		if out.Refresh, err = wh.Refresh(); err != nil {
			return nil, err
		}
	}
	if cfg.KeepRuns > 0 || cfg.MaxAge > 0 {
		pol := warehouse.Retention{KeepRuns: cfg.KeepRuns, MaxAge: cfg.MaxAge}
		if out.Prune, err = wh.Prune(pol); err != nil {
			return nil, err
		}
	}
	res, err := wh.Query(warehouse.Request{
		Kind:       cfg.Kind,
		Experiment: cfg.Experiment,
		Cell:       cfg.Cell,
		Response:   cfg.Response,
		Confidence: cfg.Confidence,
		Tolerance:  cfg.Tolerance,
		Limit:      cfg.Limit,
	})
	if err != nil {
		return nil, err
	}
	out.Result = res
	return &out, nil
}
