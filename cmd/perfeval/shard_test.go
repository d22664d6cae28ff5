package main

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestShardedWorkflowEndToEnd drives the full scale-out workflow through
// the CLI: two simulated shard workers (separate runW invocations over
// one journal dir), merge, and the acceptance property — the merged
// journal is byte-identical to a single-process run's journal, and
// compact is a no-op on it.
func TestShardedWorkflowEndToEnd(t *testing.T) {
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shards")
	partialReports := 0
	for k := 0; k < 2; k++ {
		var out bytes.Buffer
		args := []string{
			"-Dsched.workers=1", "-Dsched.shards=2", fmt.Sprintf("-Dsched.shard=%d", k),
			"-Djournal.dir=" + shardDir, "run", "t4",
		}
		if err := runW(&out, args); err != nil {
			t.Fatalf("worker %d: %v\n%s", k, err, out.String())
		}
		if want := fmt.Sprintf("shard %d of 2", k); !strings.Contains(out.String(), want) {
			t.Errorf("worker %d banner missing %q:\n%s", k, want, out.String())
		}
		if strings.Contains(out.String(), "partial result set") {
			partialReports++
		}
		if strings.Contains(out.String(), "NaN") {
			t.Errorf("worker %d artifact leaks NaN analysis:\n%s", k, out.String())
		}
	}
	// t4's 4 cells split 2 ways: at least one worker sees an incomplete
	// design and must say so instead of rendering a NaN model.
	if partialReports == 0 {
		t.Error("no worker flagged its result set as partial")
	}
	shardFiles, err := filepath.Glob(filepath.Join(shardDir, "*.shard-*-of-002.jsonl"))
	if err != nil || len(shardFiles) != 2 {
		t.Fatalf("shard files = %v (err %v), want exactly 2", shardFiles, err)
	}

	// Merge the two worker journals.
	merged := filepath.Join(dir, "merged.jsonl")
	var out bytes.Buffer
	if err := runW(&out, append([]string{"merge", merged}, shardFiles...)); err != nil {
		t.Fatalf("merge: %v\n%s", err, out.String())
	}
	for _, want := range []string{"merged 2 source(s)", "kept 4 record(s)", "0 conflict(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("merge output missing %q:\n%s", want, out.String())
		}
	}

	// Reference: the same experiment in one process, one worker (appends
	// in design order, the canonical order merge writes).
	singleDir := filepath.Join(dir, "single")
	if err := runW(&out, []string{"-Dsched.workers=1", "-Djournal.dir=" + singleDir, "run", "t4"}); err != nil {
		t.Fatal(err)
	}
	singleFiles, err := filepath.Glob(filepath.Join(singleDir, "*.jsonl"))
	if err != nil || len(singleFiles) != 1 {
		t.Fatalf("single-run journals = %v (err %v), want exactly 1", singleFiles, err)
	}

	// Acceptance: compacted merged journal == compacted single journal,
	// byte for byte.
	out.Reset()
	if err := runW(&out, []string{"compact", merged}); err != nil {
		t.Fatal(err)
	}
	if err := runW(&out, []string{"compact", singleFiles[0]}); err != nil {
		t.Fatal(err)
	}
	mergedData, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	singleData, err := os.ReadFile(singleFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if len(mergedData) == 0 {
		t.Fatal("merged journal is empty")
	}
	if !bytes.Equal(mergedData, singleData) {
		t.Errorf("sharded+merged journal != single-process journal:\n%s\nvs\n%s", mergedData, singleData)
	}

	// Merge is idempotent through the CLI too.
	merged2 := filepath.Join(dir, "merged2.jsonl")
	if err := runW(&out, []string{"merge", merged2, merged}); err != nil {
		t.Fatal(err)
	}
	again, err := os.ReadFile(merged2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, mergedData) {
		t.Error("re-merging the merged journal changed its bytes")
	}

	// The merged journal replays to the same artifact the single run
	// produced (modulo the scheduler banner's journal path).
	// The merged file sits under a different stem than the journal the
	// scheduler opens, so replay from a copy at the expected name.
	var fromMerged, fromSingle bytes.Buffer
	replayDir := filepath.Join(dir, "replay")
	if err := os.MkdirAll(replayDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(replayDir, filepath.Base(singleFiles[0])), mergedData, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := runW(&fromMerged, []string{"-Dsched.workers=1", "-Djournal.dir=" + replayDir, "run", "t4"}); err != nil {
		t.Fatal(err)
	}
	if err := runW(&fromSingle, []string{"-Dsched.workers=1", "-Djournal.dir=" + singleDir, "run", "t4"}); err != nil {
		t.Fatal(err)
	}
	norm := func(s, dir string) string { return strings.Replace(s, "journal "+dir, "journal X", 1) }
	if norm(fromMerged.String(), replayDir) != norm(fromSingle.String(), singleDir) {
		t.Errorf("artifact from merged journal differs from single-run artifact:\n%s\nvs\n%s",
			fromMerged.String(), fromSingle.String())
	}
}

// TestMergeStrictFailsOnConflict seeds two journals that disagree on one
// unit: plain merge reports and succeeds, strict merge fails and leaves
// the destination as it found it — absent, or the earlier merge's bytes.
func TestMergeStrictFailsOnConflict(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, ms float64) string {
		path := filepath.Join(dir, name)
		line := fmt.Sprintf(`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"f":"x"},"responses":{"ms":%g}}`+"\n", ms)
		if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	a := write("a.jsonl", 1)
	b := write("b.jsonl", 2)
	out := filepath.Join(dir, "out.jsonl")

	var buf bytes.Buffer
	if err := runW(&buf, []string{"-Dmerge.strict=true", "merge", out, a, b}); err == nil {
		t.Fatal("strict merge should fail on the conflict")
	}
	if _, err := os.Stat(out); !os.IsNotExist(err) {
		t.Fatalf("strict merge wrote %s anyway (stat: %v)", out, err)
	}
	buf.Reset()
	if err := runW(&buf, []string{"merge", out, a, b}); err != nil {
		t.Fatalf("non-strict merge should succeed: %v", err)
	}
	if !strings.Contains(buf.String(), "conflict: e/h/0") || !strings.Contains(buf.String(), "1 conflict(s)") {
		t.Errorf("merge output should report the conflict:\n%s", buf.String())
	}
	before, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	buf.Reset()
	err = runW(&buf, []string{"-Dmerge.strict=true", "merge", out, b, a})
	if err == nil || !strings.Contains(err.Error(), "conflicting") {
		t.Errorf("strict merge should fail on the conflict, got %v", err)
	}
	if after, _ := os.ReadFile(out); !bytes.Equal(before, after) {
		t.Errorf("strict merge rewrote %s:\n%s\nwas\n%s", out, after, before)
	}
}

// TestShardPlanCommand checks the printed plan and the shard-file status
// table.
func TestShardPlanCommand(t *testing.T) {
	var out bytes.Buffer
	if err := runW(&out, []string{"-Dsched.shards=3", "shard-plan", "t4"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{
		"perfeval run t4 -Dsched.shards=3 -Dsched.shard=0 -Djournal.dir=shards",
		"-Dsched.shard=2",
		"perfeval merge shards/merged/<experiment>.jsonl shards/<experiment>.shard-*-of-003.jsonl",
		"perfeval compact",
		"perfeval diff",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plan missing %q:\n%s", want, out.String())
		}
	}

	// With a journal dir holding real shard files, the plan includes a
	// status table.
	dir := t.TempDir()
	shardDir := filepath.Join(dir, "shards")
	if err := runW(&out, []string{"-Dsched.workers=1", "-Dsched.shards=2", "-Dsched.shard=0",
		"-Djournal.dir=" + shardDir, "run", "t4"}); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runW(&out, []string{"-Dsched.shards=2", "-Djournal.dir=" + shardDir, "shard-plan", "t4"}); err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"shard files present", "records", "shard-000-of-002"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("plan status missing %q:\n%s", want, out.String())
		}
	}
}

// TestShardFlagValidation covers the CLI-level misconfigurations of the
// sharded workflow.
func TestShardFlagValidation(t *testing.T) {
	dir := t.TempDir()
	for _, bad := range [][]string{
		{"-Dsched.shards=2", "run", "t4"},                                                                // no journal dir
		{"-Dsched.shards=2", "-Djournal.dir=" + dir, "run", "t4"},                                        // shards without an explicit shard
		{"-Dsched.shard=1", "-Djournal.dir=" + dir, "run", "t4"},                                         // shard without shards
		{"-Dsched.shards=0", "-Djournal.dir=" + dir, "run", "t4"},                                        // bad count
		{"-Dsched.shards=x", "-Djournal.dir=" + dir, "run", "t4"},                                        // unparsable
		{"-Dsched.shards=2", "-Dsched.shard=2", "-Djournal.dir=" + dir, "run", "t4"},                     // out of range
		{"-Dsched.shards=2", "-Dsched.shard=1", "-Djournal.dir=" + dir, "-Dadaptive.min=2", "run", "t4"}, // adaptive combo
		{"merge"},              // no out
		{"merge", "out.jsonl"}, // no sources
		{"merge", filepath.Join(dir, "out.jsonl"), filepath.Join(dir, "absent.jsonl")},
		{"shard-plan"},       // no id
		{"shard-plan", "t4"}, // no shard count
		{"-Dsched.shards=0", "shard-plan", "t4"},
		{"-Dsched.shards=2", "shard-plan", "zzz"},
	} {
		if err := run(bad); err == nil {
			t.Errorf("run(%v) should error", bad)
		}
	}
}
