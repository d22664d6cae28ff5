// Command perfeval regenerates the paper's tables and figures.
//
// Usage:
//
//	perfeval list
//	perfeval run <id>|all [-Dout.dir=DIR] [-Dsched.workers=N] [-Djournal.dir=DIR] [-Dstore=journal|archive|binary]
//	perfeval run <id>|all -Dsched.shards=N -Dsched.shard=K -Djournal.dir=DIR
//	perfeval serve -Dcollector.dir=DIR [-Dcollector.addr=:8080] [-Dcollector.shards=N] [-Dcollector.log=debug|info|quiet]
//	perfeval work <id>|all -Dcollector.url=http://host:8080 [-Dsched.workers=N] [-Dworker.binary=true]
//	perfeval metrics -Dcollector.url=http://host:8080 [-Dmetrics.format=prometheus|json]
//	perfeval shard-plan <id>|all -Dsched.shards=N [-Djournal.dir=DIR]
//	perfeval merge <out.jsonl|out.arch> <src.jsonl|src.arch>... [-Dmerge.strict=true]
//	perfeval archive <out.arch|out.archz> <src.jsonl|src.arch>...
//	perfeval inspect <file|dir>... [-Dinspect.strict=true]
//	perfeval query <dir> [-Dquery.kind=runs|history|trends|regressions] [-Dquery.experiment=NAME] [-Dquery.cell=HASH|"k=v k=v"] [-Dquery.response=NAME] [-Dquery.limit=N] [-Dquery.format=table|json]
//	perfeval diff <baseline.jsonl> <current.jsonl> [-Ddiff.confidence=0.95] [-Ddiff.tolerance=0.05]
//	perfeval compact <journal.jsonl> [-Dcompact.out=PATH]
//	perfeval suite
//
// The command is a thin flag-parsing layer over the public repro
// package: every -D property maps onto a repro.RunConfig field or a
// repro function argument, so anything the CLI can do, a library caller
// can do identically — and the two cannot drift (tools/apicheck guards
// the API surface `make check` builds against).
//
// run prints the artifact to stdout; with -Dout.dir=DIR it also writes
// res/<id>.txt under DIR (creating directories as needed). With
// -Dsched.workers=N and/or -Djournal.dir=DIR the harness executes
// through the concurrent scheduler (internal/sched): design rows run in
// parallel on N workers, completed units are journaled under DIR, and a
// re-run warm-starts from the journal, skipping completed rows.
// -Dsched.retries=N and -Dsched.timeout=DUR tune per-unit retry and
// timeout. An interrupted run (Ctrl-C, SIGTERM) drains its in-flight
// units, leaves the journal valid, and resumes from it on the next run.
//
// Adaptive replication (internal/adaptive) replaces the fixed
// rows x replicates budget with CI-targeted sequential analysis:
// -Dadaptive.rel=0.05 stops replicating a cell once its confidence
// interval's relative half-width is <= 5%, after at least
// -Dadaptive.min=3 and at most -Dadaptive.max=50 replicates.
// -Dadaptive.prioritize=<baseline.jsonl> compares running cells against
// a baseline journal: cells the gate would flag as regressed get a
// tighter (rel/2) target and are scheduled first. Any adaptive.* flag
// switches the run onto the scheduler; after each experiment a budget
// report prints the replicates spent per cell against the fixed-budget
// equivalent.
//
// Sharded scale-out: -Dsched.shards=N -Dsched.shard=K partitions each
// experiment's design rows by assignment hash so that N perfeval
// processes (any mix of machines sharing nothing but the eventual merge
// step) execute disjoint row sets, each journaling into its own shard
// file <journal.dir>/<experiment>.shard-K-of-N.jsonl. shard-plan prints
// the worker, merge, and verification commands for a given shard count,
// plus the status of any shard files already present. merge folds shard
// journals (last-wins, cross-source conflicts reported; with
// -Dmerge.strict=true conflicts fail the command) into one journal in
// canonical order — after `perfeval compact`, byte-identical to the
// journal a single-process run of the same experiment produces.
//
// Collector mode replaces the shared-filesystem step of the sharded
// workflow with a long-lived HTTP daemon: `perfeval serve` owns the
// experiment stores (-Dcollector.dir) and partitions each experiment
// into -Dcollector.shards lease-able shards; any number of `perfeval
// work` processes — on any machines that can reach -Dcollector.url —
// lease shards, execute them through the scheduler, and stream
// completed records back as NDJSON batches (or, with
// -Dworker.binary=true, in the negotiated binary wire framing — higher
// ingest throughput, same records). Leases carry a TTL
// (-Dcollector.ttl): a worker that dies mid-stream loses its shard to
// the pool, and the next worker warm-starts from everything the dead
// one streamed. Per-experiment backpressure (-Dcollector.inflight
// bytes; HTTP 429 + Retry-After) bounds ingest memory. The collector's
// merged store is byte-identical to a single-process run; GET
// /v1/status endpoints expose worker, lease, per-cell replicate, and
// (with -Dcollector.baseline) regression-gate state. The daemon is
// restartable: worker registrations and lease grants are journaled in
// -Dcollector.dir, a restarted daemon resumes them, and workers ride
// out the restart on transport retries. -Dcollector.token arms shared
// bearer-token auth on every data-plane endpoint (workers pass the same
// value as -Dworker.token). Ingest is group-committed with nothing to
// tune: a worker sends each batch of finished units as one request, and
// the daemon lands whatever requests queued during its previous fsync
// with the next one. The wire protocol is documented in
// docs/COLLECTOR.md.
//
// Observability: the daemon and worker log structured events through
// log/slog at the level -Dcollector.log selects (debug, info — the
// default — or quiet), and every layer instruments itself into the
// self-measurement registry (internal/obs; docs/OBSERVABILITY.md
// catalogs the series). `perfeval metrics` polls a running daemon's
// GET /v1/metrics endpoint and prints the snapshot in the Prometheus
// text format, or JSON with -Dmetrics.format=json.
//
// The archive store (-Dstore=archive) swaps the per-experiment JSONL
// journal for the block-indexed single-file archive
// (internal/runstore/archivestore): same warm-start and durability
// semantics, but reopening a finished run costs O(index), not a re-parse
// of every record — the backend for million-run archives. `perfeval
// archive out.arch src...` converts journals (or merged shards, or other
// archives — a read-only legacy version-1 or -2 one included, which is
// how it is upgraded) into one verified archive; `perfeval inspect`
// prints any
// store file's shape — record/distinct counts, archive block and index
// page stats — and reports torn or truncated tails instead of silently
// counting only the valid prefix (-Dinspect.strict=true turns a torn
// tail into a non-zero exit). diff and merge read archives wherever they
// read journals.
//
// The binary store (-Dstore=binary) keeps the journal's append-only
// single-file semantics but frames records in the length-prefixed
// checksummed binary encoding (docs/FORMAT.md) instead of JSON lines —
// the fast append/scan path. merge, inspect, diff, and compact read and
// write .binj files exactly as they do journals and archives.
//
// query asks the result warehouse (internal/warehouse; docs/WAREHOUSE.md)
// one question: `perfeval query <dir>` indexes every store file under
// the directory — incrementally, unchanged files are skipped on a stat —
// and answers from the per-cell aggregate index alone, never rescanning
// record blocks. -Dquery.kind selects the question (runs lists the
// indexed runs; history follows one design cell across runs, with
// confidence intervals rebuilt from the index; trends draws
// per-(experiment, response) mean lines; regressions lists cells whose
// newest run shifted against the previous one under the regression
// gate's CI-shift rule). -Dquery.cell selects a cell by assignment hash
// or canonical "k=v k=v" string; -Dquery.confidence and
// -Dquery.tolerance tune the intervals like diff's flags;
// -Dquery.keep=N / -Dquery.maxage=DUR apply retention (pruned runs
// leave the index, source files are never touched);
// -Dquery.norefresh=true answers from the index without walking the
// directory; -Dquery.format=json emits the same body a collector
// daemon's GET /v1/query serves. inspect also accepts directories,
// listing every store the warehouse catalog would discover.
//
// diff loads two run stores, aggregates them per (assignment,
// response), and applies the regression gate: confidence intervals that
// have shifted versus the baseline are flagged and the command exits
// non-zero — a CI guard for performance work.
//
// compact rewrites a journal keeping only the last record of every
// (experiment, assignment, replicate) key — the retention tool for
// journals that accumulated superseded records. In place by default;
// -Dcompact.out=PATH writes aside instead.
//
// suite prints the repeatability instructions for the whole experiment
// set.
package main

import (
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/signal"
	"path/filepath"
	"sort"
	"syscall"

	"repro"
	"repro/internal/config"
)

func main() {
	// Ctrl-C / SIGTERM cancel the run context: the scheduler drains its
	// workers and leaves every store valid and warm-startable. The
	// registration is released on the first signal (AfterFunc), so a
	// second signal kills the process the default way instead of being
	// swallowed while a long unit drains.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop)
	if err := runCtx(ctx, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfeval:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runW(os.Stdout, args) }

func runW(w io.Writer, args []string) error { return runCtxW(context.Background(), w, args) }

func runCtx(ctx context.Context, args []string) error { return runCtxW(ctx, os.Stdout, args) }

func runCtxW(ctx context.Context, w io.Writer, args []string) error {
	props := config.New(nil)
	rest, err := props.ApplyArgs(args)
	if err != nil {
		return err
	}
	if len(rest) == 0 {
		return fmt.Errorf("usage: perfeval list | run <id>|all | serve | work <id>|all | metrics | shard-plan <id>|all | merge <out> <src>... | archive <out.arch> <src>... | inspect <file|dir>... | query <dir> | diff <baseline> <current> | compact <journal> | suite")
	}
	switch rest[0] {
	case "list":
		for _, e := range repro.Experiments() {
			fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
		}
		return nil

	case "run":
		if len(rest) < 2 {
			return fmt.Errorf("usage: perfeval run <id>|all")
		}
		return runExperiments(ctx, w, props, rest[1:])

	case "serve":
		if len(rest) != 1 {
			return fmt.Errorf("usage: perfeval serve -Dcollector.dir=DIR [-Dcollector.addr=:8080] [-Dcollector.shards=N] [-Dcollector.ttl=30s] [-Dcollector.inflight=BYTES] [-Dcollector.baseline=PATH] [-Dcollector.token=SECRET]")
		}
		return serveCmd(ctx, w, props)

	case "work":
		if len(rest) < 2 {
			return fmt.Errorf("usage: perfeval work <id>|all -Dcollector.url=URL [-Dsched.workers=N] [-Dworker.name=NAME] [-Dworker.spool=DIR] [-Dworker.token=SECRET]")
		}
		return workCmd(ctx, w, props, rest[1:])

	case "metrics":
		if len(rest) != 1 {
			return fmt.Errorf("usage: perfeval metrics -Dcollector.url=URL [-Dmetrics.format=prometheus|json]")
		}
		return metricsCmd(ctx, w, props)

	case "shard-plan":
		if len(rest) != 2 {
			return fmt.Errorf("usage: perfeval shard-plan <id>|all -Dsched.shards=N [-Djournal.dir=DIR]")
		}
		return shardPlan(w, props, rest[1])

	case "merge":
		if len(rest) < 3 {
			return fmt.Errorf("usage: perfeval merge <out.jsonl> <src.jsonl>...")
		}
		return merge(w, props, rest[1], rest[2:])

	case "archive":
		if len(rest) < 3 {
			return fmt.Errorf("usage: perfeval archive <out%s|out%s> <src.jsonl|src%s>...", repro.ArchiveExt, repro.ArchiveExtZ, repro.ArchiveExt)
		}
		return archiveCmd(w, props, rest[1], rest[2:])

	case "inspect":
		if len(rest) < 2 {
			return fmt.Errorf("usage: perfeval inspect <file|dir>... [-Dinspect.strict=true]")
		}
		return inspect(w, props, rest[1:])

	case "query":
		if len(rest) != 2 {
			return fmt.Errorf("usage: perfeval query <dir> [-Dquery.kind=runs|history|trends|regressions] [-Dquery.experiment=NAME] [-Dquery.cell=HASH|\"k=v k=v\"] [-Dquery.response=NAME] [-Dquery.confidence=0.95] [-Dquery.tolerance=0.05] [-Dquery.limit=N] [-Dquery.keep=N] [-Dquery.maxage=DUR] [-Dquery.norefresh=true] [-Dquery.format=table|json]")
		}
		return queryCmd(w, props, rest[1])

	case "diff":
		if len(rest) != 3 {
			return fmt.Errorf("usage: perfeval diff <baseline.jsonl> <current.jsonl>")
		}
		return diff(w, props, rest[1], rest[2])

	case "compact":
		if len(rest) != 2 {
			return fmt.Errorf("usage: perfeval compact <journal.jsonl>")
		}
		out := props.GetOr("compact.out", "")
		cs, err := repro.Compact(rest[1], out)
		if err != nil {
			return err
		}
		if out == "" {
			out = rest[1]
		}
		if cs.Unchanged {
			fmt.Fprintf(w, "%s is already compact: %d record(s), nothing superseded; not rewritten\n", out, cs.Kept)
			return nil
		}
		fmt.Fprintf(w, "compacted %s: kept %d record(s), dropped %d superseded", out, cs.Kept, cs.Dropped)
		if cs.Torn {
			fmt.Fprint(w, ", torn tail removed")
		}
		fmt.Fprintln(w)
		return nil

	case "suite":
		fmt.Fprint(w, repro.SuiteInstructions())
		return nil

	default:
		return fmt.Errorf("unknown command %q (want list, run, serve, work, metrics, shard-plan, merge, archive, inspect, query, diff, compact, or suite)", rest[0])
	}
}

// runExperiments is the run subcommand: flags become a repro.RunConfig,
// each experiment runs through repro.Run, and artifacts plus budget
// reports print in paper order.
func runExperiments(ctx context.Context, w io.Writer, props *config.Properties, ids []string) error {
	cfg, err := buildRunConfig(props)
	if err != nil {
		return err
	}
	if banner := cfg.Describe(); banner != "" {
		fmt.Fprintln(w, banner)
	}
	outDir := props.GetOr("out.dir", "")
	if ids[0] == "all" {
		// Run ids one by one (rather than repro.RunAll) so artifacts and
		// budget reports stream out as each experiment finishes.
		ids = nil
		for _, e := range repro.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	for _, id := range ids {
		out, err := repro.Run(ctx, id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		r := out.Result
		fmt.Fprintf(w, "=== %s (slides %s): %s ===\n\n%s\n", r.ID, r.Slides, r.Title, r.Text)
		if r.Notes != "" {
			fmt.Fprintf(w, "notes: %s\n\n", r.Notes)
		}
		if out.Budget != nil {
			fmt.Fprintf(w, "%s\n", out.Budget)
		}
		if outDir != "" {
			dir := filepath.Join(outDir, "res")
			if err := os.MkdirAll(dir, 0o755); err != nil {
				return err
			}
			path := filepath.Join(dir, r.ID+".txt")
			if err := os.WriteFile(path, []byte(r.Text), 0o644); err != nil {
				return err
			}
			fmt.Fprintf(w, "wrote %s\n\n", path)
		}
	}
	return nil
}

// buildRunConfig maps the sched.*, journal.*, store, and adaptive.*
// properties onto a repro.RunConfig, validating flag combinations at
// the CLI boundary (a dropped flag in a worker script must fail loudly,
// not silently produce an incomplete dataset). With none of those
// properties set it returns the zero config: the sequential executor,
// keeping measurements unperturbed by concurrency.
func buildRunConfig(props *config.Properties) (repro.RunConfig, error) {
	var cfg repro.RunConfig
	var err error
	workersSet := props.GetOr("sched.workers", "") != ""
	journalDir := props.GetOr("journal.dir", "")
	shardsSet := props.GetOr("sched.shards", "") != ""
	shardSet := props.GetOr("sched.shard", "") != ""
	storeKind := props.GetOr("store", "")
	adaptiveCfg, err := buildAdaptive(props)
	if err != nil {
		return cfg, err
	}
	if !workersSet && journalDir == "" && adaptiveCfg == nil && !shardsSet && !shardSet && storeKind == "" {
		return cfg, nil
	}
	cfg.JournalDir = journalDir
	cfg.Adaptive = adaptiveCfg
	if storeKind != "" && journalDir == "" {
		return cfg, fmt.Errorf("store=%s requires -Djournal.dir (the directory the per-experiment store files live in)", storeKind)
	}
	switch storeKind {
	case "", "journal":
		// The JSONL journal is the default backend.
	case "archive":
		if shardsSet {
			return cfg, fmt.Errorf("store=archive cannot combine with sched.shards: shard files are journals; archive the merged result instead")
		}
		cfg.Store = repro.StoreArchive
	case "binary":
		if shardsSet {
			return cfg, fmt.Errorf("store=binary cannot combine with sched.shards: shard files are JSONL journals; convert the merged result instead")
		}
		cfg.Store = repro.StoreBinary
	default:
		return cfg, fmt.Errorf("unknown store backend %q (want journal, archive, or binary)", storeKind)
	}
	if shardSet && !shardsSet {
		return cfg, fmt.Errorf("sched.shard needs sched.shards")
	}
	if shardsSet {
		if cfg.Shards, err = props.GetInt("sched.shards"); err != nil {
			return cfg, err
		}
		if cfg.Shards < 1 {
			return cfg, fmt.Errorf("sched.shards = %d, need >= 1", cfg.Shards)
		}
		if journalDir == "" {
			return cfg, fmt.Errorf("sched.shards requires -Djournal.dir (shard files are the run's only output)")
		}
		if !shardSet && cfg.Shards > 1 {
			// Defaulting to shard 0 would silently execute a fraction of
			// the design and exit 0 — a dropped flag in a worker script
			// must fail loudly, not produce an incomplete dataset.
			return cfg, fmt.Errorf("sched.shards = %d needs an explicit -Dsched.shard=K (0..%d)", cfg.Shards, cfg.Shards-1)
		}
		if shardSet {
			if cfg.Shard, err = props.GetInt("sched.shard"); err != nil {
				return cfg, err
			}
		}
		if cfg.Shard < 0 || cfg.Shard >= cfg.Shards {
			return cfg, fmt.Errorf("sched.shard = %d out of range [0,%d)", cfg.Shard, cfg.Shards)
		}
	}
	if workersSet {
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

// buildAdaptive maps the adaptive.* properties onto an AdaptiveConfig,
// nil when none is set.
func buildAdaptive(props *config.Properties) (*repro.AdaptiveConfig, error) {
	relSet := props.GetOr("adaptive.rel", "") != ""
	minSet := props.GetOr("adaptive.min", "") != ""
	maxSet := props.GetOr("adaptive.max", "") != ""
	prioritize := props.GetOr("adaptive.prioritize", "")
	if !relSet && !minSet && !maxSet && prioritize == "" {
		return nil, nil
	}
	a := &repro.AdaptiveConfig{Baseline: prioritize}
	var err error
	if relSet {
		if a.Rel, err = props.GetFloat("adaptive.rel"); err != nil {
			return nil, err
		}
	}
	if minSet {
		if a.Min, err = props.GetInt("adaptive.min"); err != nil {
			return nil, err
		}
	}
	if maxSet {
		if a.Max, err = props.GetInt("adaptive.max"); err != nil {
			return nil, err
		}
	}
	return a, nil
}

// merge folds shard journals into one canonical journal and reports
// cross-source conflicts; with merge.strict=true conflicts fail the
// command after the (last-wins) merge has still been written.
func merge(w io.Writer, props *config.Properties, out string, srcs []string) error {
	strict, err := strictFlag(props, "merge.strict")
	if err != nil {
		return err
	}
	ms, err := repro.Merge(out, srcs...)
	if err != nil {
		return err
	}
	for _, c := range ms.Conflicts {
		fmt.Fprintf(w, "conflict: %s: %s overrides %s\n", c.Key, c.Later, c.Earlier)
	}
	fmt.Fprintf(w, "merged %d source(s) into %s: kept %d record(s), dropped %d superseded, %d conflict(s)",
		ms.Sources, out, ms.Kept, ms.Superseded, len(ms.Conflicts))
	if ms.TornSources > 0 {
		fmt.Fprintf(w, ", torn tail dropped in %d source(s)", ms.TornSources)
	}
	fmt.Fprintln(w)
	if strict && len(ms.Conflicts) > 0 {
		return fmt.Errorf("%d conflicting record(s) across sources", len(ms.Conflicts))
	}
	return nil
}

// archiveCmd converts source journals (or merged shards, or archives)
// into one finalized, read-back-verified block-indexed archive via
// repro.Convert. Cross-source conflicts are reported exactly as
// `perfeval merge` reports them; with merge.strict=true they abort the
// conversion before anything is written.
func archiveCmd(w io.Writer, props *config.Properties, out string, srcs []string) error {
	strict, err := strictFlag(props, "merge.strict")
	if err != nil {
		return err
	}
	cs, err := repro.Convert(out, srcs, strict)
	for _, c := range cs.Conflicts {
		fmt.Fprintf(w, "conflict: %s: %s overrides %s\n", c.Key, c.Later, c.Earlier)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "archived %d source(s) into %s: %d record(s), dropped %d superseded, verified %d index lookup(s)",
		cs.Sources, out, cs.Kept, cs.Superseded, cs.Verified)
	if cs.TornSources > 0 {
		fmt.Fprintf(w, ", torn tail dropped in %d source(s)", cs.TornSources)
	}
	if len(cs.Conflicts) > 0 {
		fmt.Fprintf(w, ", %d conflict(s)", len(cs.Conflicts))
	}
	fmt.Fprintln(w)
	fmt.Fprintln(w, cs.Detail)
	return nil
}

// strictFlag parses one boolean -D property, defaulting to false.
func strictFlag(props *config.Properties, key string) (bool, error) {
	if props.GetOr(key, "") == "" {
		return false, nil
	}
	return props.GetBool(key)
}

// inspect prints the shape of store files — journals or archives — and
// reports torn or truncated tails loudly instead of letting a damaged
// artifact read as a small complete one. A directory argument expands to
// every store file the warehouse catalog would discover under it, one
// row per store. inspect.strict=true turns any torn file into a
// non-zero exit for CI use.
func inspect(w io.Writer, props *config.Properties, paths []string) error {
	strict, err := strictFlag(props, "inspect.strict")
	if err != nil {
		return err
	}
	tab := repro.NewTable().Header("file", "records", "distinct", "torn")
	var details, torn []string
	addRow := func(name string, info repro.Info) {
		tab.Row(name, fmt.Sprintf("%d", info.Records), fmt.Sprintf("%d", info.Distinct), fmt.Sprintf("%v", info.Torn))
		if info.Detail != "" {
			details = append(details, name+": "+info.Detail)
		}
		if info.Torn {
			torn = append(torn, name)
		}
	}
	for _, p := range paths {
		st, err := os.Stat(p)
		if err != nil {
			return err
		}
		if st.IsDir() {
			stores, err := repro.InspectDir(p)
			if err != nil {
				return err
			}
			if len(stores) == 0 {
				details = append(details, p+": no store files discovered")
			}
			for _, s := range stores {
				addRow(filepath.Join(p, filepath.FromSlash(s.Path)), s.Info)
			}
			continue
		}
		info, err := repro.Inspect(p)
		if err != nil {
			return err
		}
		addRow(p, info)
	}
	fmt.Fprint(w, tab.String())
	for _, d := range details {
		fmt.Fprintln(w, d)
	}
	for _, p := range torn {
		fmt.Fprintf(w, "WARNING: %s has a torn or truncated tail — counts cover only the valid prefix; reopening for writing repairs by truncation\n", p)
	}
	if strict && len(torn) > 0 {
		return fmt.Errorf("%d file(s) torn or truncated", len(torn))
	}
	return nil
}

// shardPlan prints the copy-pasteable command sequence of the sharded
// workflow — one worker command per shard, then the merge, compact, and
// diff steps — and, when the journal directory already exists, a status
// table of the shard files found there.
func shardPlan(w io.Writer, props *config.Properties, id string) error {
	shards, err := props.GetInt("sched.shards")
	if err != nil {
		return fmt.Errorf("shard-plan needs -Dsched.shards=N: %w", err)
	}
	if shards < 1 {
		return fmt.Errorf("sched.shards = %d, need >= 1", shards)
	}
	if id != "all" {
		known := false
		for _, e := range repro.Experiments() {
			if e.ID == id {
				known = true
				break
			}
		}
		if !known {
			return fmt.Errorf("unknown experiment %q (see perfeval list)", id)
		}
	}
	dir := props.GetOr("journal.dir", "shards")
	fmt.Fprintf(w, "shard plan: run %s across %d worker process(es), journal dir %s\n\n", id, shards, dir)
	fmt.Fprintf(w, "# 1. one worker per shard — separate processes or machines, any order;\n")
	fmt.Fprintf(w, "#    each executes only the design rows its shard owns and writes\n")
	fmt.Fprintf(w, "#    %s/<experiment>.shard-K-of-%03d.jsonl:\n", dir, shards)
	for k := 0; k < shards; k++ {
		fmt.Fprintf(w, "perfeval run %s -Dsched.shards=%d -Dsched.shard=%d -Djournal.dir=%s\n", id, shards, k, dir)
	}
	fmt.Fprintf(w, "\n# 2. merge each experiment's shard files into one canonical journal:\n")
	fmt.Fprintf(w, "perfeval merge %s/merged/<experiment>.jsonl %s/<experiment>.shard-*-of-%03d.jsonl\n", dir, dir, shards)
	fmt.Fprintf(w, "\n# 3. compact then has nothing to rewrite (merge already wrote the\n")
	fmt.Fprintf(w, "#    canonical last-wins form) and leaves the file untouched, so\n")
	fmt.Fprintf(w, "#    archives stay stable:\n")
	fmt.Fprintf(w, "perfeval compact %s/merged/<experiment>.jsonl\n", dir)
	fmt.Fprintf(w, "\n# 4. replay the merged journal for the full artifact, or gate it:\n")
	fmt.Fprintf(w, "perfeval run %s -Djournal.dir=%s/merged\n", id, dir)
	fmt.Fprintf(w, "perfeval diff <baseline.jsonl> %s/merged/<experiment>.jsonl\n", dir)
	fmt.Fprintf(w, "\n# collector mode runs the same plan without a shared filesystem or\n")
	fmt.Fprintf(w, "# per-worker -Dsched.shard bookkeeping: one daemon owns the store and\n")
	fmt.Fprintf(w, "# leases shards to workers over HTTP (see docs/COLLECTOR.md):\n")
	fmt.Fprintf(w, "perfeval serve -Dcollector.dir=%s -Dcollector.shards=%d\n", dir, shards)
	fmt.Fprintf(w, "perfeval work %s -Dcollector.url=http://<collector-host>:8080   # per worker machine\n", id)

	pattern := filepath.Join(dir, fmt.Sprintf("*.shard-*-of-%03d.jsonl", shards))
	files, err := filepath.Glob(pattern)
	if err != nil {
		return err
	}
	if len(files) == 0 {
		return nil
	}
	sort.Strings(files)
	fmt.Fprintf(w, "\nshard files present under %s:\n", dir)
	tab := repro.NewTable().Header("file", "records", "distinct", "torn")
	for _, f := range files {
		info, err := repro.Inspect(f)
		if err != nil {
			return err
		}
		tab.Row(filepath.Base(f), fmt.Sprintf("%d", info.Records),
			fmt.Sprintf("%d", info.Distinct), fmt.Sprintf("%v", info.Torn))
	}
	fmt.Fprint(w, tab.String())
	return nil
}

// queryCmd maps the query.* properties onto a repro.QueryConfig and
// prints the answer — the house-style table by default, or with
// query.format=json the exact body a collector daemon serves on
// GET /v1/query for the same warehouse.
func queryCmd(w io.Writer, props *config.Properties, dir string) error {
	cfg := repro.QueryConfig{
		Dir:        dir,
		Kind:       props.GetOr("query.kind", ""),
		Experiment: props.GetOr("query.experiment", ""),
		Cell:       props.GetOr("query.cell", ""),
		Response:   props.GetOr("query.response", ""),
	}
	var err error
	if props.GetOr("query.confidence", "") != "" {
		if cfg.Confidence, err = props.GetFloat("query.confidence"); err != nil {
			return err
		}
	}
	if props.GetOr("query.tolerance", "") != "" {
		if cfg.Tolerance, err = props.GetFloat("query.tolerance"); err != nil {
			return err
		}
	}
	if props.GetOr("query.limit", "") != "" {
		if cfg.Limit, err = props.GetInt("query.limit"); err != nil {
			return err
		}
	}
	if props.GetOr("query.keep", "") != "" {
		if cfg.KeepRuns, err = props.GetInt("query.keep"); err != nil {
			return err
		}
	}
	if props.GetOr("query.maxage", "") != "" {
		if cfg.MaxAge, err = props.GetDuration("query.maxage"); err != nil {
			return err
		}
	}
	if cfg.NoRefresh, err = strictFlag(props, "query.norefresh"); err != nil {
		return err
	}
	format := props.GetOr("query.format", "table")
	if format != "table" && format != "json" {
		return fmt.Errorf("unknown query format %q (want table or json)", format)
	}
	out, err := repro.Query(cfg)
	if err != nil {
		return err
	}
	if format == "json" {
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		return enc.Encode(out.Result)
	}
	if !cfg.NoRefresh {
		fmt.Fprintf(w, "catalog: %d store(s) discovered, %d ingested (%d record(s)), %d unchanged\n",
			out.Refresh.Candidates, out.Refresh.Ingested, out.Refresh.Records, out.Refresh.Unchanged)
	}
	if cfg.KeepRuns > 0 || cfg.MaxAge > 0 {
		fmt.Fprintf(w, "retention: %d run(s) pruned, %d kept\n", out.Prune.Pruned, out.Prune.Kept)
	}
	fmt.Fprint(w, out.Result.String())
	return nil
}

// diff gates a current run store against a baseline store and returns
// an error when any cell regressed or went unmeasured, so CI pipelines
// can fail on the exit code.
func diff(w io.Writer, props *config.Properties, basePath, curPath string) error {
	var opt repro.GateOptions
	var err error
	if props.GetOr("diff.confidence", "") != "" {
		if opt.Confidence, err = props.GetFloat("diff.confidence"); err != nil {
			return err
		}
	}
	if props.GetOr("diff.tolerance", "") != "" {
		if opt.Tolerance, err = props.GetFloat("diff.tolerance"); err != nil {
			return err
		}
	}
	d, err := repro.Diff(basePath, curPath, opt)
	if err != nil {
		return err
	}
	for _, e := range d.Entries {
		if e.Report == nil {
			fmt.Fprintf(w, "experiment %q: absent from current run\n", e.Experiment)
			continue
		}
		fmt.Fprintln(w, e.Report)
	}
	for _, name := range d.CurrentOnly {
		fmt.Fprintf(w, "experiment %q: in current only, skipped\n", name)
	}
	if d.Failed() {
		return fmt.Errorf("%d cell(s) regressed, %d cell(s) missing versus baseline %s", d.Regressions, d.Missing, basePath)
	}
	return nil
}
