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
	"strings"

	"repro"
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

// printConflicts reports cross-source conflicts the way merge and
// archive both do.
func printConflicts(w io.Writer, cs []repro.Conflict) {
	for _, c := range cs {
		fmt.Fprintf(w, "conflict: %s: %s overrides %s\n", c.Key, c.Later, c.Earlier)
	}
}

// merge folds shard journals into one canonical journal and reports
// cross-source conflicts; with merge.strict=true conflicts fail the
// command after the (last-wins) merge has still been written.
func merge(_ context.Context, w io.Writer, o *opts, args []string) error {
	out := args[0]
	ms, err := repro.Merge(out, args[1:]...)
	if err != nil {
		return err
	}
	printConflicts(w, ms.Conflicts)
	fmt.Fprintf(w, "merged %d source(s) into %s: kept %d record(s), dropped %d superseded, %d conflict(s)",
		ms.Sources, out, ms.Kept, ms.Superseded, len(ms.Conflicts))
	if ms.TornSources > 0 {
		fmt.Fprintf(w, ", torn tail dropped in %d source(s)", ms.TornSources)
	}
	fmt.Fprintln(w)
	if o.mergeStrict && len(ms.Conflicts) > 0 {
		return fmt.Errorf("%d conflicting record(s) across sources", len(ms.Conflicts))
	}
	return nil
}

// archive converts source journals (or merged shards, or archives) into
// one finalized, read-back-verified block-indexed archive via
// repro.Convert. Cross-source conflicts are reported exactly as merge
// reports them; with merge.strict=true they abort the conversion before
// anything is written.
func archive(_ context.Context, w io.Writer, o *opts, args []string) error {
	out := args[0]
	cs, err := repro.Convert(out, args[1:], o.mergeStrict)
	printConflicts(w, cs.Conflicts)
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
