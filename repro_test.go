package repro

import (
	"context"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/paperexp"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/sched"
)

func TestPublicAPI(t *testing.T) {
	exps := Experiments()
	if len(exps) != 17 {
		t.Fatalf("experiments = %d", len(exps))
	}
	out, err := Run(context.Background(), "t4", RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.Result.Text, "40") {
		t.Error("t4 text missing mean")
	}
	if _, err := Run(context.Background(), "zzz", RunConfig{}); err == nil {
		t.Error("unknown id should error")
	}
}

// TestRunConfigScheduledJournaledRun drives the library path the CLI is
// built on: a configured Run journals under JournalDir, a re-run
// warm-starts from it, and Open serves the journal's records back.
func TestRunConfigScheduledJournaledRun(t *testing.T) {
	dir := t.TempDir()
	cfg := RunConfig{Workers: 2, JournalDir: dir}
	if banner := cfg.Describe(); !strings.Contains(banner, "2 workers") || !strings.Contains(banner, dir) {
		t.Errorf("Describe = %q", banner)
	}
	cold, err := Run(context.Background(), "t4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if cold.Budget != nil {
		t.Error("fixed-budget run should carry no Budget")
	}
	assertUnits(t, "cold", cold.Metrics, 4, 0)
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journal files = %v (err %v)", files, err)
	}
	before, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}

	warm, err := Run(context.Background(), "t4", cfg)
	if err != nil {
		t.Fatal(err)
	}
	if warm.Result.Text != cold.Result.Text {
		t.Error("warm artifact differs from cold")
	}
	assertUnits(t, "warm", warm.Metrics, 0, 4)
	after, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if string(before) != string(after) {
		t.Error("warm re-run appended to the journal")
	}

	st, err := Open(files[0])
	if err != nil {
		t.Fatal(err)
	}
	if st.Info().Torn {
		t.Error("fresh journal reports torn")
	}
	recs, err := runstore.Collect(st.Scan())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != st.Info().Distinct || len(recs) == 0 {
		t.Errorf("Open: %d records vs info %+v", len(recs), st.Info())
	}
	n := 0
	for rec, err := range st.Scan() {
		if err != nil {
			t.Fatal(err)
		}
		if rec.Key() != recs[n].Key() {
			t.Errorf("Scan order diverges from Records at %d", n)
		}
		n++
	}
	if n != len(recs) {
		t.Errorf("Scan yielded %d, Records %d", n, len(recs))
	}
}

// TestRunConfigStoreFiles pins what RunConfig's one store opener
// writes: each configuration leaves exactly the one file it always wrote
// under JournalDir, and a second Run over it replays every unit the
// first executed.
func TestRunConfigStoreFiles(t *testing.T) {
	const stem = "workstation_performance_2_2" // t4's experiment, sanitized
	for _, tc := range []struct {
		name string
		cfg  RunConfig
		file string
	}{
		{"journal", RunConfig{Workers: 2}, stem + ".jsonl"},
		{"archive", RunConfig{Workers: 2, Store: StoreArchive}, stem + ".arch"},
		{"shard", RunConfig{Workers: 2, Shards: 2, Shard: 1}, stem + ".shard-001-of-002.jsonl"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.cfg.JournalDir = dir
			cold, err := Run(context.Background(), "t4", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			entries, err := os.ReadDir(dir)
			if err != nil {
				t.Fatal(err)
			}
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			if len(names) != 1 || names[0] != tc.file {
				t.Fatalf("files under JournalDir = %q, want [%q]", names, tc.file)
			}
			executed, _ := cold.Metrics.Get("sched_units_executed_total")
			if executed.Value == 0 {
				t.Fatal("cold run executed nothing")
			}
			warm, err := Run(context.Background(), "t4", tc.cfg)
			if err != nil {
				t.Fatal(err)
			}
			assertUnits(t, "warm", warm.Metrics, 0, executed.Value)
		})
	}
}

// assertUnits checks the scheduler counters of one Run's own metrics.
func assertUnits(t *testing.T, run string, m *Metrics, executed, replayed float64) {
	t.Helper()
	if m == nil {
		t.Fatalf("%s run: Outcome.Metrics is nil", run)
	}
	e, _ := m.Get("sched_units_executed_total")
	r, _ := m.Get("sched_units_replayed_total")
	if e.Value != executed || r.Value != replayed {
		t.Errorf("%s run: executed %v, replayed %v; want %v, %v", run, e.Value, r.Value, executed, replayed)
	}
}

// TestRunAdaptiveBudget runs t4 adaptively and checks the Outcome
// carries an itemized budget.
func TestRunAdaptiveBudget(t *testing.T) {
	out, err := Run(context.Background(), "t4", RunConfig{Adaptive: &AdaptiveConfig{Min: 2, Max: 5}})
	if err != nil {
		t.Fatal(err)
	}
	b := out.Budget
	if b == nil || len(b.Cells) != 4 {
		t.Fatalf("budget = %+v, want 4 cells", b)
	}
	if b.Units != 8 { // t4 is noise-free: every cell stops at min=2
		t.Errorf("units = %d, want 8", b.Units)
	}
	if !strings.Contains(b.String(), "adaptive budget report") {
		t.Errorf("budget report = %q", b.String())
	}
	// t4's fixed budget is 4 x 1 replicate; the adaptive floor of 2
	// overspends it, and Saved must say so rather than flatter the run.
	if b.FixedBudget != 4 || b.Saved() != 1-float64(b.Units)/float64(b.FixedBudget) {
		t.Errorf("fixed budget %d saved %v", b.FixedBudget, b.Saved())
	}
}

// TestDiffRawJournalAsMerged: a Workers: 4 run appends units in the
// order they finish, and Diff reads that raw journal and the journal
// Merge canonicalizes it into to the same verdicts and the same report,
// on either side of the gate.
func TestDiffRawJournalAsMerged(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), "t4", RunConfig{Workers: 4, JournalDir: dir, Adaptive: &AdaptiveConfig{Min: 3, Max: 3}}); err != nil {
		t.Fatal(err)
	}
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil || len(files) != 1 {
		t.Fatalf("journal files = %v (err %v)", files, err)
	}
	raw, merged := files[0], filepath.Join(t.TempDir(), "merged.jsonl")
	if _, err := Merge(merged, raw); err != nil {
		t.Fatal(err)
	}
	// A baseline in which one cell was a third faster: the run regresses there.
	data, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	base := filepath.Join(t.TempDir(), "base.jsonl")
	if err := os.WriteFile(base, []byte(strings.ReplaceAll(string(data), `"MIPS":75`, `"MIPS":50`)), 0o644); err != nil {
		t.Fatal(err)
	}
	render := func(baseline, current string) string {
		d, err := Diff(baseline, current, GateOptions{})
		if err != nil {
			t.Fatal(err)
		}
		var b strings.Builder
		for _, e := range d.Entries {
			b.WriteString(e.Report.String())
		}
		fmt.Fprintf(&b, "regressions %d, missing %d\n", d.Regressions, d.Missing)
		return b.String()
	}
	if got, want := render(base, raw), render(base, merged); got != want || !strings.Contains(got, "regressions 1,") {
		t.Errorf("raw journal as current:\n%s\nmerged journal as current:\n%s", got, want)
	}
	if got, want := render(raw, base), render(merged, base); got != want || !strings.Contains(got, "improved") {
		t.Errorf("raw journal as baseline:\n%s\nmerged journal as baseline:\n%s", got, want)
	}
}

// TestDiffRefusesUnmeasuredStore: a store whose records carry no
// response has no cell to gate, and Diff says so instead of passing an
// empty gate.
func TestDiffRefusesUnmeasuredStore(t *testing.T) {
	path := filepath.Join(t.TempDir(), "unmeasured.jsonl")
	line := `{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"f":"x"},"responses":{}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Diff(path, path, GateOptions{}); err == nil || !strings.Contains(err.Error(), "holds no measurements") {
		t.Fatalf("Diff of a store without responses = %v, want a no-measurements error", err)
	}
}

// TestRunConfigValidation covers library-level config validation —
// the checks that back the CLI's flag errors.
func TestRunConfigValidation(t *testing.T) {
	ctx := context.Background()
	for _, cfg := range []RunConfig{
		{Store: StoreArchive},            // archive store needs JournalDir
		{Store: StoreJournal},            // explicit journal store needs JournalDir too
		{Store: "bolt", JournalDir: "x"}, // unknown backend
		{Shards: 2, Shard: 0},            // sharding needs JournalDir
		{Shards: 2, Shard: 0, JournalDir: "x", Adaptive: &AdaptiveConfig{}}, // sharding x adaptive
		{Store: StoreArchive, JournalDir: "x", Shards: 2},                   // sharding x archive
		{Adaptive: &AdaptiveConfig{Rel: -0.1}},                              // bad target
		{Adaptive: &AdaptiveConfig{Rel: math.NaN()}},                        // not a target
		{Adaptive: &AdaptiveConfig{Rel: math.Inf(1)}},                       // stops every cell at Min
		{Adaptive: &AdaptiveConfig{Baseline: "absent-baseline-file.jsonl"}}, // unreadable baseline
	} {
		if _, err := Run(ctx, "t4", cfg); err == nil {
			t.Errorf("Run with %+v should error", cfg)
		}
	}
	// Out-of-range scheduler fields are refused before anything runs, not
	// run as their defaults: no journal is written.
	for _, tc := range []struct {
		name string
		cfg  RunConfig
		want string
	}{
		{"workers", RunConfig{Workers: -1}, "Workers = -1"},
		{"retries", RunConfig{Retries: -1}, "Retries = -1"},
		{"timeout", RunConfig{Timeout: -time.Second}, "Timeout = -1s"},
		{"shards", RunConfig{Shards: -2}, "Shards = -2"},
		{"shard without shards", RunConfig{Shard: 3}, "Shard = 3"},
		{"shard past shards", RunConfig{Shards: 2, Shard: 2}, "Shard = 2"},
		{"negative shard", RunConfig{Shards: 2, Shard: -1}, "Shard = -1"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			tc.cfg.JournalDir = dir
			if _, err := Run(ctx, "t4", tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Run with %+v = %v, want an error naming %q", tc.cfg, err, tc.want)
			}
			if files, _ := os.ReadDir(dir); len(files) != 0 {
				t.Errorf("refused run wrote %d file(s)", len(files))
			}
		})
	}
}

// TestWorkConfigValidation: Work refuses the scheduler fields it shares
// with RunConfig when they are out of range, before it names a collector.
func TestWorkConfigValidation(t *testing.T) {
	for _, tc := range []struct {
		name string
		cfg  WorkConfig
		want string
	}{
		{"workers", WorkConfig{Workers: -1}, "Workers = -1"},
		{"retries", WorkConfig{Retries: -1}, "Retries = -1"},
		{"timeout", WorkConfig{Timeout: -time.Second}, "Timeout = -1s"},
	} {
		t.Run(tc.name, func(t *testing.T) {
			tc.cfg.URL = "http://127.0.0.1:1" // never dialled: the check comes first
			tc.cfg.SpoolDir = t.TempDir()
			if _, err := Work(context.Background(), "t4", tc.cfg); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Errorf("Work with %+v = %v, want an error naming %q", tc.cfg, err, tc.want)
			}
		})
	}
}

// TestMergeCompactConvertInspect walks the public tooling surface over
// a journal produced through the public Run path.
func TestMergeCompactConvertInspect(t *testing.T) {
	dir := t.TempDir()
	if _, err := Run(context.Background(), "t4", RunConfig{Workers: 1, JournalDir: dir}); err != nil {
		t.Fatal(err)
	}
	files, _ := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if len(files) != 1 {
		t.Fatalf("journal files = %v", files)
	}
	src := files[0]

	merged := filepath.Join(dir, "merged.jsonl")
	ms, err := Merge(merged, src)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Kept == 0 || len(ms.Conflicts) != 0 {
		t.Errorf("merge stats = %+v", ms)
	}
	if _, err := Compact(merged, ""); err != nil {
		t.Fatal(err)
	}

	// .archz is a legacy name that readers accept and Convert refuses.
	if _, err := Convert(filepath.Join(dir, "baseline.archz"), []string{merged}, true); err == nil || !strings.Contains(err.Error(), "must end in .arch") {
		t.Errorf("Convert to a .archz destination: %v, want it refused", err)
	}
	for _, name := range []string{"archive.v1.archz", "archive.v2.archz"} {
		path := filepath.Join("testdata", "golden", name)
		info, err := Inspect(path)
		if err != nil {
			t.Fatal(err)
		}
		st, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		recs, err := runstore.Collect(st.Scan())
		if err != nil || len(recs) == 0 || len(recs) != info.Distinct {
			t.Errorf("%s: scanned %d record(s), %v; Inspect says %d distinct", name, len(recs), err, info.Distinct)
		}
	}

	arch := filepath.Join(dir, "baseline"+ArchiveExt)
	cs, err := Convert(arch, []string{merged}, true)
	if err != nil {
		t.Fatal(err)
	}
	if cs.Verified != ms.Kept || !strings.Contains(cs.Detail, "footer ok") {
		t.Errorf("convert stats = %+v", cs)
	}
	info, err := Inspect(arch)
	if err != nil {
		t.Fatal(err)
	}
	if info.Distinct != ms.Kept || info.Torn {
		t.Errorf("inspect = %+v", info)
	}

	// The archive and the journal serve identical record sets through
	// the same streaming API.
	a, err := Open(arch)
	if err != nil {
		t.Fatal(err)
	}
	ar, err := runstore.Collect(a.Scan())
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := runstore.Collect(j.Scan())
	if err != nil {
		t.Fatal(err)
	}
	if len(ar) != len(jr) {
		t.Fatalf("archive %d records, journal %d", len(ar), len(jr))
	}

	// Diff of a store against itself gates clean.
	d, err := Diff(merged, arch, GateOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if d.Failed() {
		t.Errorf("self-diff failed: %+v", d)
	}
}

// TestArchiveRunCommitsBatches: a run into the archive store commits
// finished units in batches — fewer commits than units — and a second run
// over the same directory replays every unit from the archive. The cold
// run holds the archive's first commit open until the runner has been
// called for the fourth unit: its one worker queued the three units
// before it, so at least two of them wait behind the held commit and land
// together, however the goroutines are scheduled.
func TestArchiveRunCommitsBatches(t *testing.T) {
	dir := t.TempDir()
	store := &heldArchive{started: make(chan struct{}), release: make(chan struct{})}
	reg := obs.NewRegistry()
	s := sched.New(sched.Options{Workers: 1, Metrics: reg, Open: func(experiment string) (runstore.Store, error) {
		a, err := archivestore.OpenDir(dir, experiment) // as RunConfig.build opens it for StoreArchive
		store.Archive = a
		return store, err
	}})
	called := make(chan struct{}, 4)
	ctx := harness.WithExecutor(context.Background(), countingExecutor{s, called})
	var cold *paperexp.Result
	errc := make(chan error, 1)
	go func() {
		var err error
		cold, err = paperexp.Run(ctx, "t4")
		errc <- err
	}()
	for _, wait := range []chan struct{}{store.started, called, called, called, called} {
		select {
		case <-wait:
		case err := <-errc:
			t.Fatalf("t4 returned before its units queued behind the first commit: %v", err)
		}
	}
	close(store.release)
	if err := <-errc; err != nil {
		t.Fatal(err)
	}
	e := reg.Counter("sched_units_executed_total", "").Value()
	c := reg.Counter("sched_commits_total", "").Value()
	if e != 4 || c >= e {
		t.Errorf("cold run: %d commit(s) for %d executed unit(s), want fewer commits than units", c, e)
	}
	warm, err := Run(context.Background(), "t4", RunConfig{Workers: 2, JournalDir: dir, Store: StoreArchive})
	if err != nil {
		t.Fatal(err)
	}
	assertUnits(t, "warm", warm.Metrics, 0, float64(e))
	if warm.Result.Text != cold.Text {
		t.Error("the warm run's artifact differs from the cold run's")
	}
}

// heldArchive is the archive store whose first commit waits, once it has
// started, until release is closed.
type heldArchive struct {
	*archivestore.Archive
	started, release chan struct{}
	once             sync.Once
}

func (h *heldArchive) AppendBatch(recs []runstore.Record) error {
	h.once.Do(func() {
		close(h.started)
		<-h.release
	})
	return h.Archive.AppendBatch(recs)
}

// countingExecutor executes through s, sending on called each time a
// unit's runner is called.
type countingExecutor struct {
	s      *sched.Scheduler
	called chan<- struct{}
}

func (x countingExecutor) Execute(ctx context.Context, e *harness.Experiment) (*harness.ResultSet, error) {
	counted := *e
	counted.Run = func(a design.Assignment, rep int) (map[string]float64, error) {
		x.called <- struct{}{}
		return e.Run(a, rep)
	}
	return x.s.Execute(ctx, &counted)
}
