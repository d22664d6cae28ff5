package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestArchiveWorkflowEndToEnd drives the journal → archive → warm-start
// pipeline through the CLI: a journaled run, a merge into an archive
// (read back record by record), inspection, and the acceptance property — a re-run
// against the archive replays exactly the completed units, leaving the
// archive byte-identical and reproducing the journal run's artifact.
func TestArchiveWorkflowEndToEnd(t *testing.T) {
	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")
	var first bytes.Buffer
	if err := runW(&first, []string{"-Dsched.workers=1", "-Djournal.dir=" + journalDir, "run", "t4"}); err != nil {
		t.Fatalf("journaled run: %v\n%s", err, first.String())
	}
	journals, err := filepath.Glob(filepath.Join(journalDir, "*.jsonl"))
	if err != nil || len(journals) != 1 {
		t.Fatalf("journals = %v (err %v), want exactly 1", journals, err)
	}

	// Merge into an archive; the .arch file must live under its own dir with the same
	// experiment-derived stem so -Dstore=archive finds it.
	archDir := filepath.Join(dir, "archive")
	stem := strings.TrimSuffix(filepath.Base(journals[0]), ".jsonl")
	arch := filepath.Join(archDir, stem+".arch")
	var out bytes.Buffer
	if err := runW(&out, []string{"merge", arch, journals[0]}); err != nil {
		t.Fatalf("merge into an archive: %v\n%s", err, out.String())
	}
	want := "merged 1 source(s) into " + arch + ": kept 4 record(s), dropped 0 superseded, 0 conflict(s), verified 4 index lookup(s)\n" +
		"archive v3: 4 record block(s), 1 index page(s), footer ok\n"
	if out.String() != want {
		t.Errorf("merge into an archive printed\n%s\nwant\n%s", out.String(), want)
	}

	// Inspect both artifacts: same record counts, archive shape reported.
	out.Reset()
	if err := runW(&out, []string{"inspect", journals[0], arch}); err != nil {
		t.Fatalf("inspect: %v\n%s", err, out.String())
	}
	if !strings.Contains(out.String(), "archive v3:") || !strings.Contains(out.String(), "index page(s)") {
		t.Errorf("inspect output missing archive stats:\n%s", out.String())
	}
	if strings.Contains(out.String(), "WARNING") {
		t.Errorf("inspect of healthy files warned:\n%s", out.String())
	}

	before, err := os.ReadFile(arch)
	if err != nil {
		t.Fatal(err)
	}

	// Warm start from the archive: every unit replays from the index, so
	// the archive must not change by a single byte and the artifact must
	// match the journal-backed run's.
	var second bytes.Buffer
	if err := runW(&second, []string{"-Dsched.workers=1", "-Dstore=archive", "-Djournal.dir=" + archDir, "run", "t4"}); err != nil {
		t.Fatalf("archive-backed run: %v\n%s", err, second.String())
	}
	if !strings.Contains(second.String(), "archive store "+archDir) {
		t.Errorf("banner missing archive store:\n%s", second.String())
	}
	after, err := os.ReadFile(arch)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Fatalf("warm start mutated the archive: %d bytes -> %d bytes", len(before), len(after))
	}
	stripBanner := func(s string) string {
		lines := strings.SplitN(s, "\n", 2)
		if len(lines) == 2 && strings.HasPrefix(lines[0], "scheduler:") {
			return lines[1]
		}
		return s
	}
	if stripBanner(first.String()) != stripBanner(second.String()) {
		t.Errorf("archive warm start produced a different artifact:\n--- journal run ---\n%s\n--- archive run ---\n%s",
			first.String(), second.String())
	}

	// The archive also gates like a journal: diff it against the journal
	// it came from — identical measurements, no regressions.
	out.Reset()
	if err := runW(&out, []string{"diff", journals[0], arch}); err != nil {
		t.Fatalf("diff journal vs archive: %v\n%s", err, out.String())
	}
}

// TestInspectReportsTruncatedArchive cuts the tail off an archive and
// asserts inspect says so — loudly, and with a non-zero exit under
// inspect.strict — instead of presenting the valid prefix as a complete
// artifact.
func TestInspectReportsTruncatedArchive(t *testing.T) {
	dir := t.TempDir()
	journalDir := filepath.Join(dir, "journal")
	var out bytes.Buffer
	if err := runW(&out, []string{"-Dsched.workers=1", "-Djournal.dir=" + journalDir, "run", "t4"}); err != nil {
		t.Fatal(err)
	}
	journals, _ := filepath.Glob(filepath.Join(journalDir, "*.jsonl"))
	arch := filepath.Join(dir, "run.arch")
	if err := runW(&out, []string{"merge", arch, journals[0]}); err != nil {
		t.Fatal(err)
	}
	st, err := os.Stat(arch)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.Truncate(arch, st.Size()-21); err != nil {
		t.Fatal(err)
	}
	out.Reset()
	if err := runW(&out, []string{"inspect", arch}); err != nil {
		t.Fatalf("inspect (non-strict) should report, not fail: %v", err)
	}
	for _, want := range []string{"WARNING", "TRUNCATED"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("inspect output missing %q:\n%s", want, out.String())
		}
	}
	if err := runW(&out, []string{"-Dinspect.strict=true", "inspect", arch}); err == nil {
		t.Fatal("inspect.strict of a truncated archive should exit non-zero")
	}
}

// TestArchiveReportsConflicts pins conflict handling on a merge into an
// archive: divergent re-measurements of the same unit across sources are
// reported as a merge into a journal reports them, and
// -Dmerge.strict=true refuses to write the archive at all.
func TestArchiveReportsConflicts(t *testing.T) {
	dir := t.TempDir()
	a := filepath.Join(dir, "a.jsonl")
	b := filepath.Join(dir, "b.jsonl")
	recA := `{"experiment":"e","row":0,"replicate":0,"hash":"cafe","assignment":{"k":"v"},"responses":{"t":1}}` + "\n"
	recB := `{"experiment":"e","row":0,"replicate":0,"hash":"cafe","assignment":{"k":"v"},"responses":{"t":2}}` + "\n"
	if err := os.WriteFile(a, []byte(recA), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(b, []byte(recB), 0o644); err != nil {
		t.Fatal(err)
	}
	arch := filepath.Join(dir, "out.arch")
	var out bytes.Buffer
	if err := runW(&out, []string{"merge", arch, a, b}); err != nil {
		t.Fatalf("non-strict merge should write the archive despite conflicts: %v\n%s", err, out.String())
	}
	for _, want := range []string{"conflict: e/cafe/0", "1 conflict(s)"} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("archive output missing %q:\n%s", want, out.String())
		}
	}
	strictOut := filepath.Join(dir, "strict.arch")
	out.Reset()
	if err := runW(&out, []string{"-Dmerge.strict=true", "merge", strictOut, a, b}); err == nil {
		t.Fatal("strict merge of conflicting sources should fail")
	}
	if !strings.Contains(out.String(), "conflict: e/cafe/0") {
		t.Errorf("strict merge did not report the conflict:\n%s", out.String())
	}
	if _, err := os.Stat(strictOut); !os.IsNotExist(err) {
		t.Fatal("strict mode wrote the archive anyway")
	}
}

// TestStoreFlagValidation pins the misconfiguration guards: archive
// store without a journal dir, with sharding, and unknown backends all
// fail loudly before any experiment runs.
func TestStoreFlagValidation(t *testing.T) {
	var out bytes.Buffer
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"-Dstore=archive", "run", "t4"}, "requires JournalDir"},
		{[]string{"-Dstore=archive", "-Dsched.shards=2", "-Dsched.shard=0", "-Djournal.dir=x", "run", "t4"}, "cannot combine with sharded execution"},
		{[]string{"-Dstore=bolt", "-Djournal.dir=x", "run", "t4"}, "unknown store backend"},
		{[]string{"-Dstore=binary", "-Djournal.dir=x", "run", "t4"}, "unknown store backend"},
		{[]string{"-Dstore=journal", "run", "t4"}, "requires JournalDir"},
	}
	for _, c := range cases {
		out.Reset()
		err := runW(&out, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("runW(%v) = %v, want error containing %q", c.args, err, c.want)
		}
	}
}
