package main

import (
	"bytes"
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstore"
)

func TestPerfevalCommands(t *testing.T) {
	if err := run([]string{"list"}); err != nil {
		t.Errorf("list: %v", err)
	}
	if err := run([]string{"suite"}); err != nil {
		t.Errorf("suite: %v", err)
	}
	if err := run([]string{"run", "t4", "t9"}); err != nil {
		t.Errorf("run t4 t9: %v", err)
	}
	dir := t.TempDir()
	if err := run([]string{"-Dout.dir=" + dir, "run", "t3"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "res", "t3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 50 {
		t.Errorf("artifact too short: %d bytes", len(data))
	}
	for _, bad := range [][]string{
		{},
		{"run"},
		{"run", "zzz"},
		{"bogus"},
		{"-Dmalformed", "list"},
		{"diff"},
		{"diff", "only-one.jsonl"},
		{"diff", "absent-a.jsonl", "absent-b.jsonl"},
		{"-Dsched.workers=zero", "run", "t4"},
		{"-Dsched.workers=0", "run", "t4"},
		{"-Dsched.timeout=nonsense", "-Djournal.dir=x", "run", "t4"},
		{"compact"},
		{"compact", "a.jsonl", "b.jsonl"},
		{"compact", "absent.jsonl"},
		{"-Dadaptive.rel=bogus", "run", "t4"},
		{"-Dadaptive.rel=-0.1", "run", "t4"},
		{"-Dadaptive.min=7", "-Dadaptive.max=2", "run", "t4"},
		{"-Dadaptive.prioritize=absent.jsonl", "run", "t4"},
	} {
		if err := run(bad); err == nil {
			t.Errorf("run(%v) should error", bad)
		}
	}
}

// TestAdaptiveRunPrintsBudgetReport runs t4 under the adaptive
// controller: the artifact must carry the scheduler banner and a
// per-cell budget report comparing spend against the fixed budget.
func TestAdaptiveRunPrintsBudgetReport(t *testing.T) {
	var out bytes.Buffer
	if err := runW(&out, []string{"-Dadaptive.min=2", "-Dadaptive.max=5", "-Dsched.workers=2", "run", "t4"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"adaptive rel=0.05 min=2 max=5",
		"adaptive budget report:",
		"vs fixed budget",
		"assignment",
		"cache=1KB memory=4MB",
		"after 2 reps", // t4 is noise-free: every cell stops at the minimum
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("adaptive run output missing %q:\n%s", want, out.String())
		}
	}
}

// TestAdaptivePrioritizeFlagsBaselineDrift seeds a baseline journal in
// which one t4 cell was much faster: the adaptive run must flag that
// cell as gate-regressed in the budget report.
func TestAdaptivePrioritizeFlagsBaselineDrift(t *testing.T) {
	dir := t.TempDir()
	basePath := filepath.Join(dir, "baseline.jsonl")
	j, err := runstore.Open(basePath)
	if err != nil {
		t.Fatal(err)
	}
	slow := map[string]string{"memory": "4MB", "cache": "1KB"} // measures 15 MIPS today
	for rep := 0; rep < 3; rep++ {
		err := j.Append(runstore.Record{
			Experiment: "workstation performance 2^2", Replicate: rep,
			Assignment: slow,
			Responses:  map[string]float64{"MIPS": 10 + 0.1*float64(rep)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	var out bytes.Buffer
	args := []string{"-Dadaptive.min=2", "-Dadaptive.max=5", "-Dadaptive.prioritize=" + basePath, "run", "t4"}
	if err := runW(&out, args); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "gate-flagged") {
		t.Errorf("budget report should mark the drifted cell gate-flagged:\n%s", out.String())
	}
}

// TestCompactCommand seeds a journal with superseded records and
// verifies the compact subcommand rewrites it last-wins.
func TestCompactCommand(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	j, err := runstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a := map[string]string{"f": "x"}
	for _, v := range []float64{1, 2, 3} { // same key three times
		if err := j.Append(runstore.Record{Experiment: "e", Replicate: 0, Assignment: a, Responses: map[string]float64{"ms": v}}); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	var out bytes.Buffer
	if err := runW(&out, []string{"compact", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kept 1 record(s), dropped 2") {
		t.Errorf("compact output = %q", out.String())
	}
	recs, err := runstore.LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 1 || recs[0].Responses["ms"] != 3 {
		t.Errorf("compacted records = %+v, want the last-appended value", recs)
	}

	// Compacting again finds nothing to drop and leaves the file — its
	// inode and its mtime, which the warehouse catalog orders runs by —
	// exactly as it is, and says so.
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runW(&out, []string{"compact", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "already compact: 1 record(s)") || !strings.Contains(out.String(), "not rewritten") {
		t.Errorf("second compact output = %q", out.String())
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if !os.SameFile(before, after) || !after.ModTime().Equal(before.ModTime()) {
		t.Errorf("second compact rewrote the journal: mtime %v -> %v", before.ModTime(), after.ModTime())
	}

	// A journal that gains a superseded record is rewritten again.
	j, err = runstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(runstore.Record{Experiment: "e", Replicate: 0, Assignment: a, Responses: map[string]float64{"ms": 4}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	out.Reset()
	if err := runW(&out, []string{"compact", path}); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "kept 1 record(s), dropped 1") {
		t.Errorf("third compact output = %q", out.String())
	}
	if rewritten, err := os.Stat(path); err != nil || os.SameFile(before, rewritten) {
		t.Errorf("a journal with a superseded record was not rewritten (%v)", err)
	}

	// Compact-aside via -Dcompact.out leaves the source alone.
	aside := filepath.Join(dir, "aside.jsonl")
	if err := runW(&out, []string{"-Dcompact.out=" + aside, "compact", path}); err != nil {
		t.Fatal(err)
	}
	if _, err := os.Stat(aside); err != nil {
		t.Errorf("compact.out not written: %v", err)
	}
}

// TestOutDirCreated covers out.dir pointing at a directory that does not
// exist yet: run must create it (MkdirAll) instead of failing.
func TestOutDirCreated(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "deeply", "nested", "out")
	if err := run([]string{"-Dout.dir=" + dir, "run", "t3"}); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(filepath.Join(dir, "res", "t3.txt"))
	if err != nil {
		t.Fatal(err)
	}
	if len(data) < 50 {
		t.Errorf("artifact too short: %d bytes", len(data))
	}
}

// TestJournaledRunWarmStarts runs the harness-backed t4 experiment
// through the concurrent scheduler twice over the same journal: the
// second run must replay every completed row (no new journal appends)
// and produce the identical artifact.
func TestJournaledRunWarmStarts(t *testing.T) {
	jdir := t.TempDir()
	args := []string{"-Dsched.workers=4", "-Djournal.dir=" + jdir, "run", "t4"}
	var cold bytes.Buffer
	if err := runW(&cold, args); err != nil {
		t.Fatal(err)
	}
	entries, err := filepath.Glob(filepath.Join(jdir, "*.jsonl"))
	if err != nil || len(entries) != 1 {
		t.Fatalf("journal files = %v (err %v), want exactly 1", entries, err)
	}
	before, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 {
		t.Fatal("cold run journaled nothing")
	}

	var warm bytes.Buffer
	if err := runW(&warm, args); err != nil {
		t.Fatal(err)
	}
	after, err := os.ReadFile(entries[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("warm re-run appended to the journal; completed rows were re-executed")
	}
	if cold.String() != warm.String() {
		t.Errorf("warm artifact differs from cold:\ncold:\n%s\nwarm:\n%s", cold.String(), warm.String())
	}

	// The sequential executor must agree with the scheduled run.
	var seq bytes.Buffer
	if err := runW(&seq, []string{"run", "t4"}); err != nil {
		t.Fatal(err)
	}
	want := strings.Replace(cold.String(), "scheduler: 4 workers, journal "+jdir+"\n", "", 1)
	if seq.String() != want {
		t.Errorf("scheduled artifact differs from sequential:\nsequential:\n%s\nscheduled:\n%s", seq.String(), want)
	}
}

// TestDiffFlagsSeededRegression builds a baseline journal and a current
// journal whose hot cell is 50% slower, and expects diff to report the
// regression and fail.
func TestDiffFlagsSeededRegression(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, hi float64) string {
		path := filepath.Join(dir, name)
		j, err := runstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer j.Close()
		for rep := 0; rep < 3; rep++ {
			noise := float64(rep-1) * 0.2
			for row, cell := range []struct {
				level string
				value float64
			}{
				{"lo", 10},
				{"hi", hi},
			} {
				a := map[string]string{"f": cell.level}
				err := j.Append(runstore.Record{
					Experiment: "q1-scan", Row: row, Replicate: rep,
					Assignment: a,
					Responses:  map[string]float64{"ms": cell.value + noise},
				})
				if err != nil {
					t.Fatal(err)
				}
			}
		}
		return path
	}
	base := write("baseline.jsonl", 20)
	slower := write("current.jsonl", 30)

	var out bytes.Buffer
	err := runW(&out, []string{"diff", base, slower})
	if err == nil {
		t.Fatal("diff should fail on a regression")
	}
	if !strings.Contains(err.Error(), "regressed") {
		t.Errorf("error should count regressions: %v", err)
	}
	for _, want := range []string{"q1-scan", "REGRESSED", "f=hi", "regressed 1"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("diff output missing %q:\n%s", want, out.String())
		}
	}

	// Identical journals: clean diff, exit zero.
	out.Reset()
	if err := runW(&out, []string{"diff", base, base}); err != nil {
		t.Errorf("identical journals should pass: %v", err)
	}
	if !strings.Contains(out.String(), "regressed 0") {
		t.Errorf("clean diff should report zero regressions:\n%s", out.String())
	}

	// A current journal that crashed before its first append (exists but
	// empty) must fail the gate, not pass it by vacuous truth.
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runW(&out, []string{"diff", base, empty}); err == nil {
		t.Error("empty current journal should fail the gate")
	}

	// A current journal missing cells the baseline has must fail too.
	partial := filepath.Join(dir, "partial.jsonl")
	data, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	var kept []string
	for _, line := range strings.Split(strings.TrimSpace(string(data)), "\n") {
		if !strings.Contains(line, `"hi"`) {
			kept = append(kept, line)
		}
	}
	if err := os.WriteFile(partial, []byte(strings.Join(kept, "\n")+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	err = runW(&out, []string{"diff", base, partial})
	if err == nil || !strings.Contains(err.Error(), "missing") {
		t.Errorf("dropped cell should fail the gate with a missing count, got %v", err)
	}

	// An invalid confidence must error, not silently fall back.
	if err := runW(&out, []string{"-Ddiff.confidence=95", "diff", base, base}); err == nil {
		t.Error("confidence=95 (percent, not fraction) should be rejected")
	}
}

// TestRunCanceledContext covers the Ctrl-C path end to end at the CLI
// layer: a canceled context aborts a scheduled run with the context
// error, and whatever the journal holds stays valid for a warm start.
func TestRunCanceledContext(t *testing.T) {
	dir := t.TempDir()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	var out bytes.Buffer
	err := runCtxW(ctx, &out, []string{"-Dsched.workers=2", "-Djournal.dir=" + dir, "run", "t4"})
	if err == nil || !errors.Is(err, context.Canceled) {
		t.Fatalf("canceled run = %v, want context.Canceled", err)
	}
	// The journal dir holds either nothing or valid journals — inspect
	// must succeed on whatever is there.
	files, err := filepath.Glob(filepath.Join(dir, "*.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range files {
		if _, err := runstore.Inspect(f); err != nil {
			t.Errorf("journal %s invalid after cancellation: %v", f, err)
		}
	}

	// The same command under a live context completes and warm-starts
	// from whatever the canceled run persisted.
	if err := runW(&out, []string{"-Dsched.workers=2", "-Djournal.dir=" + dir, "run", "t4"}); err != nil {
		t.Fatal(err)
	}
}
