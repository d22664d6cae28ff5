package repro

import (
	"context"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/paperexp"
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

func TestRunAllMatchesRegistry(t *testing.T) {
	outs, err := RunAll(context.Background(), RunConfig{})
	if err != nil {
		t.Fatal(err)
	}
	reg := paperexp.Registry()
	if len(outs) != len(reg) {
		t.Fatalf("results = %d, registry = %d", len(outs), len(reg))
	}
	for i, o := range outs {
		if o.Result.ID != reg[i].ID {
			t.Errorf("result %d id = %s, want %s", i, o.Result.ID, reg[i].ID)
		}
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
	recs, err := Collect(st.Scan())
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
		{Adaptive: &AdaptiveConfig{Baseline: "absent-baseline-file.jsonl"}}, // unreadable baseline
	} {
		if _, err := Run(ctx, "t4", cfg); err == nil {
			t.Errorf("Run with %+v should error", cfg)
		}
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
	ar, err := Collect(a.Scan())
	if err != nil {
		t.Fatal(err)
	}
	j, err := Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	jr, err := Collect(j.Scan())
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
