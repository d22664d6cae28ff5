package main

import (
	"cmp"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
	"strconv"
	"strings"

	"repro"
	"repro/internal/design"
	"repro/internal/tpch"
)

func list(_ context.Context, w io.Writer, _ *opts, _ []string) error {
	for _, e := range repro.Experiments() {
		fmt.Fprintf(w, "%-4s %s\n", e.ID, e.Title)
	}
	return nil
}

func suite(_ context.Context, w io.Writer, _ *opts, _ []string) error {
	fmt.Fprint(w, repro.SuiteInstructions())
	return nil
}

// expand turns the experiment arguments of run and work into ids: "all"
// first means every experiment, in paper order.
func expand(ids []string) []string {
	if ids[0] == "all" {
		ids = nil
		for _, e := range repro.Experiments() {
			ids = append(ids, e.ID)
		}
	}
	return ids
}

// printArtifact prints the header and text of an artifact run or work
// regenerated.
func printArtifact(w io.Writer, r *repro.Result) {
	fmt.Fprintf(w, "=== %s (slides %s): %s ===\n\n%s\n", r.ID, r.Slides, r.Title, r.Text)
}

// runCmd is the run subcommand: each experiment runs through repro.Run
// under the RunConfig the properties set, one by one, so artifacts and
// budget reports stream out as each experiment finishes. Whether the
// run is scheduled, and whether the config is valid, is repro's to
// decide.
func runCmd(ctx context.Context, w io.Writer, o *opts, ids []string) error {
	cfg := o.run
	// RunConfig.Shard's zero-value hazard: a worker script that dropped
	// -Dsched.shard would run shard 0 of N and exit clean, and one that
	// dropped -Dsched.shards would run every row.
	if o.set["sched.shard"] && cfg.Shards == 0 {
		return fmt.Errorf("sched.shard needs sched.shards")
	}
	if cfg.Shards > 1 && !o.set["sched.shard"] {
		return fmt.Errorf("sched.shards = %d needs an explicit -Dsched.shard=K (0..%d)", cfg.Shards, cfg.Shards-1)
	}
	for key := range o.set {
		if strings.HasPrefix(key, "adaptive.") {
			cfg.Adaptive = &o.adaptive
		}
	}
	if banner := cfg.Describe(); banner != "" {
		fmt.Fprintln(w, banner)
	}
	for _, id := range expand(ids) {
		out, err := repro.Run(ctx, id, cfg)
		if err != nil {
			return fmt.Errorf("%s: %w", id, err)
		}
		r := out.Result
		printArtifact(w, r)
		if r.Notes != "" {
			fmt.Fprintf(w, "notes: %s\n\n", r.Notes)
		}
		if out.Budget != nil {
			fmt.Fprintf(w, "%s\n", out.Budget)
		}
		if o.outDir != "" {
			dir := filepath.Join(o.outDir, "res")
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

// shardPlan prints the copy-pasteable command sequence of the sharded
// workflow — one worker command per shard, then the merge, compact, and
// diff steps — and, when the journal directory already exists, a status
// table of the shard files found there.
func shardPlan(_ context.Context, w io.Writer, o *opts, args []string) error {
	id, shards, dir := args[0], o.run.Shards, cmp.Or(o.run.JournalDir, "shards")
	if id != "all" && !slices.ContainsFunc(repro.Experiments(), func(e repro.Experiment) bool { return e.ID == id }) {
		return fmt.Errorf("unknown experiment %q (see perfeval list)", id)
	}
	fmt.Fprintf(w, `shard plan: run %[1]s across %[2]d worker process(es), journal dir %[3]s

# 1. one worker per shard — separate processes or machines, any order;
#    each executes only the design rows its shard owns and writes
#    %[3]s/<experiment>.shard-K-of-%03[2]d.jsonl:
`, id, shards, dir)
	for k := 0; k < shards; k++ {
		fmt.Fprintf(w, "perfeval run %s -Dsched.shards=%d -Dsched.shard=%d -Djournal.dir=%s\n", id, shards, k, dir)
	}
	fmt.Fprintf(w, `
# 2. merge each experiment's shard files into one canonical journal:
perfeval merge %[3]s/merged/<experiment>.jsonl %[3]s/<experiment>.shard-*-of-%03[2]d.jsonl

# 3. compact then has nothing to rewrite (merge already wrote the
#    canonical last-wins form) and leaves the file untouched, so
#    archives stay stable:
perfeval compact %[3]s/merged/<experiment>.jsonl

# 4. replay the merged journal for the full artifact, or gate it:
perfeval run %[1]s -Djournal.dir=%[3]s/merged
perfeval diff <baseline.jsonl> %[3]s/merged/<experiment>.jsonl

# collector mode runs the same plan without a shared filesystem or
# per-worker -Dsched.shard bookkeeping: one daemon owns the store and
# leases shards to workers over HTTP (see docs/COLLECTOR.md):
perfeval serve -Dcollector.dir=%[3]s -Dcollector.shards=%[2]d
perfeval work %[1]s -Dcollector.url=http://<collector-host>:8080   # per worker machine
`, id, shards, dir)

	files, err := filepath.Glob(filepath.Join(dir, fmt.Sprintf("*.shard-*-of-%03d.jsonl", shards)))
	if err != nil || len(files) == 0 {
		return err
	}
	sort.Strings(files)
	fmt.Fprintf(w, "\nshard files present under %s:\n", dir)
	tab := repro.NewTable().Header("file", "records", "distinct", "torn")
	for _, f := range files {
		info, err := repro.Inspect(f)
		if err != nil {
			return err
		}
		infoRow(tab, filepath.Base(f), info)
	}
	fmt.Fprint(w, tab.String())
	return nil
}

// infoRow lays out one store's shape the way inspect and shard-plan's
// status table both print it.
func infoRow(tab *repro.Table, name string, info repro.Info) {
	tab.Row(name, fmt.Sprintf("%d", info.Records), fmt.Sprintf("%d", info.Distinct), fmt.Sprintf("%v", info.Torn))
}

// merge folds store files into one canonical store and reports
// cross-source conflicts; with merge.strict=true conflicts fail the
// command before anything is written. An archive destination is read
// back record by record before repro.Merge returns, so for an .arch one
// the line also counts the lookups verified, and the archive's shape
// follows it.
func merge(_ context.Context, w io.Writer, o *opts, args []string) error {
	out := args[0]
	ms, err := repro.Merge(out, args[1:], o.mergeStrict)
	for _, c := range ms.Conflicts {
		fmt.Fprintf(w, "conflict: %s: %s overrides %s\n", c.Key, c.Later, c.Earlier)
	}
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "merged %d source(s) into %s: kept %d record(s), dropped %d superseded, %d conflict(s)",
		ms.Sources, out, ms.Kept, ms.Superseded, len(ms.Conflicts))
	if ms.TornSources > 0 {
		fmt.Fprintf(w, ", torn tail dropped in %d source(s)", ms.TornSources)
	}
	if !strings.HasSuffix(out, repro.ArchiveExt) {
		fmt.Fprintln(w)
		return nil
	}
	fmt.Fprintf(w, ", verified %d index lookup(s)\n", ms.Kept)
	info, err := repro.Inspect(out)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, info.Detail)
	return nil
}

// inspect prints the shape of store files — journals or archives — and
// reports torn or truncated tails loudly instead of letting a damaged
// artifact read as a small complete one. A directory argument expands to
// every store file the warehouse catalog would discover under it, one
// row per store. inspect.strict=true turns any torn file into a
// non-zero exit for CI use.
func inspect(_ context.Context, w io.Writer, o *opts, paths []string) error {
	tab := repro.NewTable().Header("file", "records", "distinct", "torn")
	var details, torn []string
	addRow := func(name string, info repro.Info) {
		infoRow(tab, name, info)
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
	if o.inspectStrict && len(torn) > 0 {
		return fmt.Errorf("%d file(s) torn or truncated", len(torn))
	}
	return nil
}

// query asks the warehouse over a directory the question the query.*
// properties state and prints the answer — the house-style table by
// default, or with query.format=json the exact body a collector daemon
// serves on GET /v1/query for the same warehouse.
func query(_ context.Context, w io.Writer, o *opts, args []string) error {
	if o.queryFormat != "" && o.queryFormat != "table" && o.queryFormat != "json" {
		return fmt.Errorf("unknown query format %q (want table or json)", o.queryFormat)
	}
	cfg := o.query
	cfg.Dir = args[0]
	out, err := repro.Query(cfg)
	if err != nil {
		return err
	}
	if o.queryFormat == "json" {
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
func diff(_ context.Context, w io.Writer, o *opts, args []string) error {
	d, err := repro.Diff(args[0], args[1], o.gate)
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
		return fmt.Errorf("%d cell(s) regressed, %d cell(s) missing versus baseline %s", d.Regressions, d.Missing, args[0])
	}
	return nil
}

// compact rewrites a journal keeping the last record of every key, in
// place or, with compact.out, aside.
func compact(_ context.Context, w io.Writer, o *opts, args []string) error {
	cs, err := repro.Compact(args[0], o.compactOut)
	if err != nil {
		return err
	}
	out := cmp.Or(o.compactOut, args[0])
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
}

// letterFactors is the factor list of sign, fractional and analyze:
// design.k two-level factors named A, B, C, ... in sign-table order, or
// def of them when design.k is not given. The row holds k at 1 or more.
func letterFactors(o *opts, def int) ([]design.Factor, error) {
	k := def
	if o.set["design.k"] {
		k = o.designK
	}
	if k > 20 {
		return nil, fmt.Errorf("design.k = %d, need <= 20", k)
	}
	fs := make([]design.Factor, k)
	for i := range fs {
		fs[i] = design.MustFactor(string(rune('A'+i)), "-1", "+1")
	}
	return fs, nil
}

// sign prints the full 2^k sign table.
func sign(_ context.Context, w io.Writer, o *opts, _ []string) error {
	fs, err := letterFactors(o, 2)
	if err != nil {
		return err
	}
	st, err := design.NewSignTable(fs)
	if err != nil {
		return err
	}
	fmt.Fprint(w, st.String())
	return nil
}

// fractional prints the 2^(k-p) design design.generators define, its
// resolution and its confoundings.
func fractional(_ context.Context, w io.Writer, o *opts, _ []string) error {
	fs, err := letterFactors(o, 4)
	if err != nil {
		return err
	}
	var gens []design.Generator
	for _, s := range strings.Split(o.generators, ",") {
		g, err := design.ParseGenerator(strings.TrimSpace(s))
		if err != nil {
			return err
		}
		gens = append(gens, g)
	}
	fr, err := design.NewFractional(fs, gens)
	if err != nil {
		return err
	}
	fmt.Fprintf(w, "2^(%d-%d) design, %d runs, resolution %d\n\n", len(fs), len(gens), fr.Table.Runs, fr.Resolution())
	fmt.Fprint(w, fr.Table.Design().String())
	fmt.Fprintf(w, "\nconfoundings:\n%s", fr.ConfoundingTable())
	return nil
}

// analyze estimates the effects of a full 2^k design from
// design.responses, one per run in sign-table order, and prints the
// model and the allocation of variation.
func analyze(_ context.Context, w io.Writer, o *opts, _ []string) error {
	fs, err := letterFactors(o, 2)
	if err != nil {
		return err
	}
	st, err := design.NewSignTable(fs)
	if err != nil {
		return err
	}
	var y []float64
	for i, s := range strings.Split(o.responses, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(s), 64)
		if err != nil {
			return fmt.Errorf("response %d: %w", i+1, err)
		}
		y = append(y, v)
	}
	ef, err := design.EstimateEffects(st, y)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, ef.ModelString())
	fmt.Fprint(w, ef.VariationTable())
	return nil
}

// dbgen writes the TPC-H-like catalog under dbgen.out, one CSV per table
// — every table, or the dbgen.tables subset — and a line per file. The
// data is a function of (dbgen.sf, dbgen.seed) alone, every value
// rendered in C locale: the repeatability principle applied to data
// generation.
func dbgen(_ context.Context, w io.Writer, o *opts, _ []string) error {
	sf, seed := 0.1, int64(42)
	if o.set["dbgen.sf"] {
		sf = o.dbgenSF
	}
	if o.set["dbgen.seed"] {
		seed = o.dbgenSeed
	}
	// A negative seed is the uint64 of the same bits.
	db, err := tpch.Gen(sf, uint64(seed))
	if err != nil {
		return err
	}
	want := map[string]bool{}
	var unknown []string
	for _, t := range strings.Split(o.dbgenTables, ",") {
		if t = strings.TrimSpace(t); t == "" {
			continue
		}
		if _, err := db.Table(t); err != nil {
			unknown = append(unknown, strconv.Quote(t))
		}
		want[t] = true
	}
	if len(unknown) > 0 {
		return fmt.Errorf("dbgen.tables: unknown table(s) %s; tables: %s",
			strings.Join(unknown, ", "), strings.Join(db.TableNames(), ","))
	}
	dir := cmp.Or(o.dbgenOut, ".")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	for _, name := range db.TableNames() {
		if len(want) > 0 && !want[name] {
			continue
		}
		t, err := db.Table(name)
		if err != nil {
			return err
		}
		path := filepath.Join(dir, name+".csv")
		if err := os.WriteFile(path, []byte(t.CSV()), 0o644); err != nil {
			return err
		}
		fmt.Fprintf(w, "%-10s %8d rows  %s\n", name, t.NumRows(), path)
	}
	return nil
}
