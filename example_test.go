package repro_test

import (
	"bytes"
	"context"
	"fmt"
	"log"
	"os"
	"path/filepath"
	"strings"

	"repro"
)

// printUnits prints how many units one Run or Work call executed and
// replayed, read from the call's own metrics.
func printUnits(label string, m *repro.Metrics) {
	e, _ := m.Get("sched_units_executed_total")
	r, _ := m.Get("sched_units_replayed_total")
	fmt.Printf("%s: executed %v, replayed %v\n", label, e.Value, r.Value)
}

// printLines prints s line by line without trailing blanks, which an
// Output block cannot hold.
func printLines(s string) {
	for _, line := range strings.Split(strings.TrimRight(s, "\n"), "\n") {
		fmt.Println(strings.TrimRight(line, " "))
	}
}

// journalOf returns the one journal a run wrote under dir.
func journalOf(dir string) string {
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) != 1 {
		log.Fatalf("journals under %s: %v (%v)", dir, files, err)
	}
	return files[0]
}

func ExampleExperiments() {
	for _, e := range repro.Experiments() {
		fmt.Printf("%-4s %s\n", e.ID, e.Title)
	}
	// Output:
	// t1   server vs client time and output destination (Q1/Q16)
	// t2   hot vs cold runs, user vs real time (Q1)
	// f1   DBG/OPT relative execution time across 22 queries
	// f2   the memory wall: scan cost across machine generations
	// f3   profile breakdown of Q1: tuple-at-a-time vs column-at-a-time
	// t3   factor interaction example
	// t4   2^2 design: memory and cache effects on MIPS
	// t5   allocation of variation: networks x address patterns
	// t6   2^(7-4) fractional factorial sign table
	// t7   confounding: D=ABC versus D=AB
	// f4   chart guideline violations
	// f5   confidence intervals and histogram cell sizes
	// f6   pictorial games: truncated axes and gnuplot sizing
	// t8   automatic graph generation with gnuplot
	// t9   the locale hazard: 13.666 becomes 13666
	// t10  specifying hardware environments
	// f7   SIGMOD 2008 repeatability outcomes
}

// Run with the zero RunConfig regenerates an artifact sequentially, in
// process: here the paper's 2^2 memory/cache design.
func ExampleRun() {
	o, err := repro.Run(context.Background(), "t4", repro.RunConfig{})
	if err != nil {
		log.Fatal(err)
	}
	printLines(o.Result.Text)
	// Output:
	// sign table:
	// run	I	A	B	AB
	// 1	+1	-1	-1	+1
	// 2	+1	-1	+1	-1
	// 3	+1	+1	-1	-1
	// 4	+1	+1	+1	+1
	//
	// experiment: workstation performance 2^2 (2^k factorial, 4 runs x 1 replicates)
	// WARNING: variation due to experimental error is ignored (no replication)
	// run  memory  cache  MIPS
	// ------------------------
	// 1    4MB     1KB    15
	// 2    4MB     2KB    25
	// 3    16MB    1KB    45
	// 4    16MB    2KB    75
	//
	// response MIPS: y = 40 + 20*xA + 10*xB + 5*xA*xB
	// variation explained:
	//   qmemory  76.2%
	//   qcache   19.0%
	//   qmemory*cache   4.8%
}

// A journaled run persists every unit. Running the same config again
// warm-starts from the journal: every unit replays, nothing executes,
// and the journal is left as it was.
func ExampleRun_journal() {
	dir, err := os.MkdirTemp("", "journal")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	// One worker appends in design order, so Scan's order below is fixed.
	cfg := repro.RunConfig{Workers: 1, JournalDir: dir}

	cold, err := repro.Run(context.Background(), "t4", cfg)
	if err != nil {
		log.Fatal(err)
	}
	printUnits("cold", cold.Metrics)
	journal := journalOf(dir)
	before, err := os.ReadFile(journal)
	if err != nil {
		log.Fatal(err)
	}

	warm, err := repro.Run(context.Background(), "t4", cfg)
	if err != nil {
		log.Fatal(err)
	}
	printUnits("warm", warm.Metrics)
	after, err := os.ReadFile(journal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("same artifact:", warm.Result.Text == cold.Result.Text)
	fmt.Println("journal unchanged:", bytes.Equal(before, after))

	st, err := repro.Open(journal)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("%s: %d record(s), torn %v\n", filepath.Base(st.Path()), st.Info().Distinct, st.Info().Torn)
	for rec, err := range st.Scan() {
		if err != nil {
			log.Fatal(err)
		}
		fmt.Printf("  cache=%s memory=%s MIPS=%v\n", rec.Assignment["cache"], rec.Assignment["memory"], rec.Responses["MIPS"])
	}
	// Output:
	// cold: executed 4, replayed 0
	// warm: executed 0, replayed 4
	// same artifact: true
	// journal unchanged: true
	// workstation_performance_2_2.jsonl: 4 record(s), torn false
	//   cache=1KB memory=4MB MIPS=15
	//   cache=2KB memory=4MB MIPS=25
	//   cache=1KB memory=16MB MIPS=45
	//   cache=2KB memory=16MB MIPS=75
}

// Adaptive replication stops each cell once its confidence interval is
// tight enough. t4's design has one replicate per cell, so the adaptive
// minimum costs more than that fixed budget; its cells do not vary, so
// each stops at Min.
func ExampleRun_adaptive() {
	o, err := repro.Run(context.Background(), "t4", repro.RunConfig{
		Adaptive: &repro.AdaptiveConfig{Min: 2, Max: 5},
	})
	if err != nil {
		log.Fatal(err)
	}
	printLines(o.Budget.String())
	// Output:
	// adaptive budget report: 8 replicates spent (8 live, 0 replayed) vs fixed budget 4 (-100.0% saved)
	// run  assignment             reps  fixed  note
	// -------------------------------------------------------------------------
	// 1    cache=1KB memory=4MB   2     1      rel ±0.0% ≤ 5.0% after 2 reps
	// 2    cache=2KB memory=4MB   2     1      rel ±0.0% ≤ 5.0% after 2 reps
	// 3    cache=1KB memory=16MB  2     1      rel ±0.0% ≤ 5.0% after 2 reps
	// 4    cache=2KB memory=16MB  2     1      rel ±0.0% ≤ 5.0% after 2 reps
}

// Three shard runs, one per shard of the design, each write their own
// shard file. Merge folds them into the bytes one single-worker run
// writes.
func ExampleMerge() {
	dir, err := os.MkdirTemp("", "merge")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	shards := filepath.Join(dir, "shards")
	for k := 0; k < 3; k++ {
		o, err := repro.Run(context.Background(), "t4", repro.RunConfig{JournalDir: shards, Shards: 3, Shard: k})
		if err != nil {
			log.Fatal(err)
		}
		printUnits(fmt.Sprintf("shard %d of 3", k), o.Metrics)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	// The shard files are named after t4's harness experiment.
	ms, err := repro.Merge(merged, repro.ShardPaths(shards, "workstation performance 2^2", 3), false)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("merge: kept %d record(s), %d conflict(s)\n", ms.Kept, len(ms.Conflicts))

	single := filepath.Join(dir, "single")
	if _, err := repro.Run(context.Background(), "t4", repro.RunConfig{Workers: 1, JournalDir: single}); err != nil {
		log.Fatal(err)
	}
	a, err := os.ReadFile(merged)
	if err != nil {
		log.Fatal(err)
	}
	b, err := os.ReadFile(journalOf(single))
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("merged == single-worker journal:", bytes.Equal(a, b))
	// Output:
	// shard 0 of 3: executed 1, replayed 0
	// shard 1 of 3: executed 1, replayed 0
	// shard 2 of 3: executed 2, replayed 0
	// merge: kept 4 record(s), 0 conflict(s)
	// merged == single-worker journal: true
}

// Merge into an archive destination turns a finished run's journal into
// a block-indexed archive and reads every record back through its index
// before it returns. A run over the archive store then replays from it
// without changing a byte.
func ExampleMerge_archive() {
	dir, err := os.MkdirTemp("", "archive")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := repro.Run(context.Background(), "t4", repro.RunConfig{JournalDir: dir}); err != nil {
		log.Fatal(err)
	}
	journal := journalOf(dir)
	archDir := filepath.Join(dir, "archive")
	arch := filepath.Join(archDir, strings.TrimSuffix(filepath.Base(journal), ".jsonl")+repro.ArchiveExt)
	ms, err := repro.Merge(arch, []string{journal}, true)
	if err != nil {
		log.Fatal(err)
	}
	info, err := repro.Inspect(arch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Printf("kept and read back %d record(s); %s\n", ms.Kept, info.Detail)

	before, err := os.ReadFile(arch)
	if err != nil {
		log.Fatal(err)
	}
	o, err := repro.Run(context.Background(), "t4", repro.RunConfig{JournalDir: archDir, Store: repro.StoreArchive})
	if err != nil {
		log.Fatal(err)
	}
	printUnits("archive replay", o.Metrics)
	after, err := os.ReadFile(arch)
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println("archive unchanged:", bytes.Equal(before, after))
	// Output:
	// kept and read back 4 record(s); archive v3: 4 record block(s), 1 index page(s), footer ok
	// archive replay: executed 0, replayed 4
	// archive unchanged: true
}

// Diff gates a run against a baseline, lower values being better. Here
// the "current" journal is the baseline with one cell's response made
// 50% higher, as a slower build would record it.
func ExampleDiff() {
	dir, err := os.MkdirTemp("", "diff")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	if _, err := repro.Run(context.Background(), "t4", repro.RunConfig{JournalDir: dir}); err != nil {
		log.Fatal(err)
	}
	base := journalOf(dir)
	data, err := os.ReadFile(base)
	if err != nil {
		log.Fatal(err)
	}
	current := filepath.Join(dir, "current.jsonl")
	slower := strings.Replace(string(data), `"MIPS":75`, `"MIPS":112.5`, 1)
	if err := os.WriteFile(current, []byte(slower), 0o644); err != nil {
		log.Fatal(err)
	}

	d, err := repro.Diff(base, current, repro.GateOptions{})
	if err != nil {
		log.Fatal(err)
	}
	for _, e := range d.Entries {
		printLines(e.Report.String())
	}
	fmt.Printf("regressions %d, gate failed %v\n", d.Regressions, d.Failed())
	// Output:
	// regression gate: workstation performance 2^2 (4 cells)
	// assignment             response  baseline   current      delta%  verdict
	// --------------------------------------------------------------------------
	// cache=1KB memory=16MB  MIPS      45 ±2.2    45 ±2.2      +0.0    unchanged
	// cache=1KB memory=4MB   MIPS      15 ±0.75   15 ±0.75     +0.0    unchanged
	// cache=2KB memory=16MB  MIPS      75 ±3.8    112.5 ±5.6   +50.0   REGRESSED
	// cache=2KB memory=4MB   MIPS      25 ±1.2    25 ±1.2      +0.0    unchanged
	// unchanged 3, regressed 1, improved 0, missing 0, added 0
	// regressions 1, gate failed true
}

// Serve runs a collector daemon; Work leases the experiment's shards
// from it, runs them, and streams every record back.
func ExampleWork() {
	dir, err := os.MkdirTemp("", "work")
	if err != nil {
		log.Fatal(err)
	}
	defer os.RemoveAll(dir)
	ctx, stop := context.WithCancel(context.Background())
	ready := make(chan string, 1)
	served := make(chan error, 1)
	go func() {
		served <- repro.Serve(ctx, repro.ServeConfig{
			Addr:     "127.0.0.1:0",
			Dir:      filepath.Join(dir, "collector"),
			Shards:   2,
			LogLevel: "quiet",
			Ready:    func(addr string) { ready <- addr },
		})
	}()
	var addr string
	select {
	case addr = <-ready:
	case err := <-served:
		log.Fatal(err)
	}

	o, err := repro.Work(ctx, "t4", repro.WorkConfig{
		URL:      "http://" + addr,
		SpoolDir: filepath.Join(dir, "spool"),
		LogLevel: "quiet",
	})
	if err != nil {
		log.Fatal(err)
	}
	fmt.Println(o.Report)
	stop()
	if err := <-served; err != nil {
		log.Fatal(err)
	}
	stores, err := repro.InspectDir(filepath.Join(dir, "collector"))
	if err != nil {
		log.Fatal(err)
	}
	for _, s := range stores {
		fmt.Printf("%s: %d record(s)\n", s.Path, s.Info.Records)
	}
	// Output:
	// collector worker: completed 2 shard(s); 4 unit(s) executed, 0 replayed, 4 record(s) streamed
	// workstation_performance_2_2.shard-000-of-002.jsonl: 0 record(s)
	// workstation_performance_2_2.shard-001-of-002.jsonl: 4 record(s)
}
