// Command perfeval regenerates the paper's tables and figures.
//
// Usage:
//
//	perfeval list
//	perfeval run <id>|all... [-Dout.dir=DIR] [-Djournal.dir=DIR] [-Dstore=journal|archive] [-Dsched.shards=N] [-Dsched.shard=K] [-Dsched.workers=N] [-Dsched.retries=N] [-Dsched.timeout=DUR] [-Dadaptive.rel=REL] [-Dadaptive.min=N] [-Dadaptive.max=N] [-Dadaptive.prioritize=BASELINE]
//	perfeval serve -Dcollector.dir=DIR [-Dcollector.addr=ADDR] [-Dcollector.shards=N] [-Dcollector.ttl=DUR] [-Dcollector.inflight=BYTES] [-Dcollector.baseline=BASELINE] [-Dcollector.token=SECRET] [-Dcollector.log=debug|info|quiet]
//	perfeval work <id>|all... -Dcollector.url=URL [-Dsched.workers=N] [-Dsched.retries=N] [-Dsched.timeout=DUR] [-Dworker.name=NAME] [-Dworker.spool=DIR] [-Dworker.token=SECRET] [-Dworker.binary=BOOL] [-Dcollector.log=debug|info|quiet]
//	perfeval metrics -Dcollector.url=URL [-Dmetrics.format=prometheus|json]
//	perfeval shard-plan <id>|all -Dsched.shards=N [-Djournal.dir=DIR]
//	perfeval merge <out.jsonl|out.arch> <src.jsonl|src.arch>... [-Dmerge.strict=BOOL]
//	perfeval archive <out.arch> <src.jsonl|src.arch>... [-Dmerge.strict=BOOL]
//	perfeval inspect <file|dir>... [-Dinspect.strict=BOOL]
//	perfeval query <dir> [-Dquery.kind=runs|history|trends|regressions] [-Dquery.experiment=NAME] [-Dquery.cell=HASH|SELECTOR] [-Dquery.response=NAME] [-Dquery.confidence=LEVEL] [-Dquery.tolerance=FRACTION] [-Dquery.limit=N] [-Dquery.keep=N] [-Dquery.maxage=DUR] [-Dquery.norefresh=BOOL] [-Dquery.format=table|json]
//	perfeval diff <baseline.jsonl> <current.jsonl> [-Ddiff.confidence=LEVEL] [-Ddiff.tolerance=FRACTION]
//	perfeval compact <journal.jsonl> [-Dcompact.out=PATH]
//	perfeval suite
//
// The command is a thin flag-parsing layer over the public repro
// package: every -D property maps onto a repro.RunConfig field or a
// repro function argument, so anything the CLI can do, a library caller
// can do identically — and the two cannot drift (tools/apicheck guards
// the API surface `make check` builds against). One table states each
// command and each of its properties once; the usage above is generated
// from it, and a property the command does not take is an error naming
// the ones it does.
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
// Binary record files (.binj: length-prefixed checksummed frames,
// docs/FORMAT.md §4) are written only by merge and compact; a run never
// writes one, and the writable binary store is the archive. merge,
// inspect, diff, compact and query read .binj files exactly as they do
// journals and archives.
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
	"fmt"
	"io"
	"os"
	"os/signal"
	"slices"
	"strings"
	"syscall"
	"time"

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
	if err := runCtxW(ctx, os.Stdout, os.Args[1:]); err != nil {
		fmt.Fprintln(os.Stderr, "perfeval:", err)
		os.Exit(1)
	}
}

func run(args []string) error { return runW(os.Stdout, args) }

func runW(w io.Writer, args []string) error { return runCtxW(context.Background(), w, args) }

// runCtxW runs one command line: the command its first plain argument
// names, given as many more as the command's shape takes and the -D
// properties bound to its rows.
func runCtxW(ctx context.Context, w io.Writer, args []string) error {
	props := config.New()
	rest, err := props.ApplyArgs(args)
	if err != nil {
		return err
	}
	o := new(opts)
	for _, c := range commands(o) {
		if len(rest) == 0 || c.name != rest[0] {
			continue
		}
		want := len(strings.Fields(c.args))
		if got := len(rest) - 1; got < want || got > want && !strings.HasSuffix(c.args, "...") {
			return fmt.Errorf("usage: %s", c.usage())
		}
		if o.set, err = c.bind(props); err != nil {
			return err
		}
		return c.do(ctx, w, o, rest[1:])
	}
	msg := "usage:"
	if len(rest) > 0 {
		msg = fmt.Sprintf("unknown command %q; usage:", rest[0])
	}
	return fmt.Errorf("%s\n\t%s", msg, strings.Join(usage(), "\n\t"))
}

// opts holds every value a -D property sets, in the types the repro
// package takes them in; a command's handler reads the fields its rows
// point at.
type opts struct {
	set      map[string]bool // the keys the command line gave a value
	run      repro.RunConfig // run's rows; work and shard-plan read the ones they share
	adaptive repro.AdaptiveConfig
	serve    repro.ServeConfig
	work     repro.WorkConfig
	query    repro.QueryConfig
	gate     repro.GateOptions

	outDir, logLevel, metricsFormat, queryFormat, compactOut string
	mergeStrict, inspectStrict                               bool
}

// A prop is one -Dkey=value property: its key, the metavar its usage
// shows, the typed field it sets (*string, *int, *int64, *float64, *bool
// or *time.Duration), and whether the value must be at least 1.
type prop struct {
	key, meta string
	field     any
	atLeast1  bool
}

// A command is one subcommand: its name, its positional arguments (a
// last one ending in "..." repeats), the properties it cannot run
// without, its optional properties, and its handler.
type command struct {
	name  string
	args  string
	need  []prop
	props []prop
	do    func(ctx context.Context, w io.Writer, o *opts, args []string) error
}

// commands is the command table over one invocation's opts. A property
// two commands share is one row, listed by both.
func commands(o *opts) []command {
	journal := prop{"journal.dir", "DIR", &o.run.JournalDir, false}
	shards := prop{"sched.shards", "N", &o.run.Shards, true}
	sched := []prop{
		{"sched.workers", "N", &o.run.Workers, true},
		{"sched.retries", "N", &o.run.Retries, false},
		{"sched.timeout", "DUR", &o.run.Timeout, false},
	}
	url := prop{"collector.url", "URL", &o.work.URL, false}
	logLevel := prop{"collector.log", "debug|info|quiet", &o.logLevel, false}
	mergeStrict := prop{"merge.strict", "BOOL", &o.mergeStrict, false}
	return []command{
		{name: "list", do: list},
		{name: "run", args: "<id>|all...", do: runCmd, props: slices.Concat([]prop{
			{"out.dir", "DIR", &o.outDir, false},
			journal,
			{"store", "journal|archive", (*string)(&o.run.Store), false},
			shards,
			{"sched.shard", "K", &o.run.Shard, false},
		}, sched, []prop{
			{"adaptive.rel", "REL", &o.adaptive.Rel, false},
			{"adaptive.min", "N", &o.adaptive.Min, false},
			{"adaptive.max", "N", &o.adaptive.Max, false},
			{"adaptive.prioritize", "BASELINE", &o.adaptive.Baseline, false},
		})},
		{name: "serve", do: serveCmd, need: []prop{{"collector.dir", "DIR", &o.serve.Dir, false}}, props: []prop{
			{"collector.addr", "ADDR", &o.serve.Addr, false},
			{"collector.shards", "N", &o.serve.Shards, true},
			{"collector.ttl", "DUR", &o.serve.LeaseTTL, false},
			{"collector.inflight", "BYTES", &o.serve.MaxInflight, true},
			{"collector.baseline", "BASELINE", &o.serve.Baseline, false},
			{"collector.token", "SECRET", &o.serve.Token, false},
			logLevel,
		}},
		{name: "work", args: "<id>|all...", do: workCmd, need: []prop{url}, props: slices.Concat(sched, []prop{
			{"worker.name", "NAME", &o.work.Name, false},
			{"worker.spool", "DIR", &o.work.SpoolDir, false},
			{"worker.token", "SECRET", &o.work.Token, false},
			{"worker.binary", "BOOL", &o.work.BinaryWire, false},
			logLevel,
		})},
		{name: "metrics", do: metricsCmd, need: []prop{url}, props: []prop{
			{"metrics.format", "prometheus|json", &o.metricsFormat, false},
		}},
		{name: "shard-plan", args: "<id>|all", do: shardPlan, need: []prop{shards}, props: []prop{journal}},
		{name: "merge", args: "<out.jsonl|out.arch> <src.jsonl|src.arch>...", do: merge, props: []prop{mergeStrict}},
		{name: "archive", args: "<out.arch> <src.jsonl|src.arch>...", do: archive, props: []prop{mergeStrict}},
		{name: "inspect", args: "<file|dir>...", do: inspect, props: []prop{
			{"inspect.strict", "BOOL", &o.inspectStrict, false},
		}},
		{name: "query", args: "<dir>", do: query, props: []prop{
			{"query.kind", "runs|history|trends|regressions", &o.query.Kind, false},
			{"query.experiment", "NAME", &o.query.Experiment, false},
			{"query.cell", "HASH|SELECTOR", &o.query.Cell, false},
			{"query.response", "NAME", &o.query.Response, false},
			{"query.confidence", "LEVEL", &o.query.Confidence, false},
			{"query.tolerance", "FRACTION", &o.query.Tolerance, false},
			{"query.limit", "N", &o.query.Limit, false},
			{"query.keep", "N", &o.query.KeepRuns, false},
			{"query.maxage", "DUR", &o.query.MaxAge, false},
			{"query.norefresh", "BOOL", &o.query.NoRefresh, false},
			{"query.format", "table|json", &o.queryFormat, false},
		}},
		{name: "diff", args: "<baseline.jsonl> <current.jsonl>", do: diff, props: []prop{
			{"diff.confidence", "LEVEL", &o.gate.Confidence, false},
			{"diff.tolerance", "FRACTION", &o.gate.Tolerance, false},
		}},
		{name: "compact", args: "<journal.jsonl>", do: compact, props: []prop{
			{"compact.out", "PATH", &o.compactOut, false},
		}},
		{name: "suite", do: suite},
	}
}

// bind parses each property the command line set into the field of its
// row, by the field's type, and returns the keys it gave a value; a
// property set to "" stays unset. A key that is not one of c's rows (the
// error shows c's usage, which names them), a required row left unset
// and a value below its row's bound are errors.
func (c command) bind(props *config.Properties) (map[string]bool, error) {
	rows := c.rows()
	set := map[string]bool{}
	for _, key := range props.Keys() {
		i := slices.IndexFunc(rows, func(p prop) bool { return p.key == key })
		if i < 0 {
			return nil, fmt.Errorf("unknown property -D%s; usage: %s", key, c.usage())
		}
		if props.GetOr(key, "") == "" {
			continue
		}
		var err error
		n := 1 // the value a row's bound is checked against
		switch f := rows[i].field.(type) {
		case *string:
			*f, err = props.Get(key)
		case *int:
			*f, err = props.GetInt(key)
			n = *f
		case *int64:
			n, err = props.GetInt(key)
			*f = int64(n)
		case *float64:
			*f, err = props.GetFloat(key)
		case *bool:
			*f, err = props.GetBool(key)
		case *time.Duration:
			*f, err = props.GetDuration(key)
		default:
			panic(fmt.Sprintf("perfeval: -D%s sets a %T", key, f))
		}
		if err != nil {
			return nil, err
		}
		if rows[i].atLeast1 && n < 1 {
			return nil, fmt.Errorf("%s = %d, need >= 1", key, n)
		}
		set[key] = true
	}
	for _, p := range c.need {
		if !set[p.key] {
			return nil, fmt.Errorf("%s needs -D%s=%s", c.name, p.key, p.meta)
		}
	}
	return set, nil
}

// rows is every property c takes, required ones first.
func (c command) rows() []prop { return slices.Concat(c.need, c.props) }

// usage renders c's command line: positional arguments, required
// properties, then optional ones in brackets.
func (c command) usage() string {
	s := strings.TrimSpace("perfeval " + c.name + " " + c.args)
	for _, p := range c.need {
		s += fmt.Sprintf(" -D%s=%s", p.key, p.meta)
	}
	for _, p := range c.props {
		s += fmt.Sprintf(" [-D%s=%s]", p.key, p.meta)
	}
	return s
}

// usage is every command's line, in table order — what perfeval with no
// arguments prints, and the block the package doc shows.
func usage() []string {
	var lines []string
	for _, c := range commands(new(opts)) {
		lines = append(lines, c.usage())
	}
	return lines
}
