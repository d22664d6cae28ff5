package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"testing"
)

// writeJournal appends the given records to a fresh journal at path.
func writeJournal(t *testing.T, path string, recs ...Record) {
	t.Helper()
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	for _, r := range recs {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
}

// TestMergeShards merges two disjoint shard journals plus an agreeing
// and a disagreeing overlap, checking last-wins, conflict reporting,
// canonical output order, and composition with Compact.
func TestMergeShards(t *testing.T) {
	dir := t.TempDir()
	a := map[string]string{"f": "lo"}
	b := map[string]string{"f": "hi"}
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	// Shard 0: rows 1 (all reps) and a duplicate of row 0 rep 0 that
	// agrees with shard 1, plus a disagreeing copy of row 0 rep 1.
	writeJournal(t, s0,
		rec("e", 1, 0, b, map[string]float64{"ms": 20}),
		rec("e", 1, 1, b, map[string]float64{"ms": 21}),
		rec("e", 0, 0, a, map[string]float64{"ms": 10}),
		rec("e", 0, 1, a, map[string]float64{"ms": 999}), // superseded by shard 1
	)
	writeJournal(t, s1,
		rec("e", 0, 0, a, map[string]float64{"ms": 10}), // agrees: no conflict
		rec("e", 0, 1, a, map[string]float64{"ms": 11}), // disagrees: conflict, wins
	)
	out := filepath.Join(dir, "nested", "merged.jsonl")
	ms, err := Merge([]string{s0, s1}, out)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Sources != 2 || ms.Kept != 4 || ms.Superseded != 2 {
		t.Errorf("stats = %+v, want sources 2 kept 4 superseded 2", ms)
	}
	if len(ms.Conflicts) != 1 {
		t.Fatalf("conflicts = %+v, want exactly the disagreeing key", ms.Conflicts)
	}
	c := ms.Conflicts[0]
	if c.Key != Key("e", AssignmentHash(a), 1) || c.Earlier != s0 || c.Later != s1 {
		t.Errorf("conflict = %+v", c)
	}

	got, err := LoadRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	// Canonical order: (experiment, row, replicate); the later source won
	// the disputed key.
	wantMS := []float64{10, 11, 20, 21}
	if len(got) != 4 {
		t.Fatalf("merged records = %d, want 4", len(got))
	}
	for i, want := range wantMS {
		if got[i].Responses["ms"] != want {
			t.Errorf("record %d: ms = %v, want %v (canonical order broken?)", i, got[i].Responses["ms"], want)
		}
	}

	// Idempotence: re-merging the merge output is a byte-identical no-op,
	// and so is compacting it.
	data, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	ms2, err := Merge([]string{out}, out)
	if err != nil {
		t.Fatal(err)
	}
	if ms2.Kept != 4 || ms2.Superseded != 0 || len(ms2.Conflicts) != 0 {
		t.Errorf("re-merge stats = %+v", ms2)
	}
	again, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("re-merge changed the file")
	}
	if _, err := Compact(out, ""); err != nil {
		t.Fatal(err)
	}
	if again, err = os.ReadFile(out); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(data, again) {
		t.Error("compact after merge changed the file; merge output should already be canonical last-wins")
	}
}

// TestMergeCanonicalizesWriterOrder writes the same records in two
// different append orders and checks both journals merge to identical
// bytes — the property that makes sharded and single-process runs
// comparable byte-for-byte.
func TestMergeCanonicalizesWriterOrder(t *testing.T) {
	dir := t.TempDir()
	a := map[string]string{"f": "lo"}
	b := map[string]string{"f": "hi"}
	recs := []Record{
		rec("e", 0, 0, a, map[string]float64{"ms": 1}),
		rec("e", 0, 1, a, map[string]float64{"ms": 2}),
		rec("e", 1, 0, b, map[string]float64{"ms": 3}),
		rec("e", 1, 1, b, map[string]float64{"ms": 4}),
	}
	ordered := filepath.Join(dir, "ordered.jsonl")
	writeJournal(t, ordered, recs...)
	shuffled := filepath.Join(dir, "shuffled.jsonl")
	writeJournal(t, shuffled, recs[3], recs[1], recs[0], recs[2])

	out1 := filepath.Join(dir, "c1.jsonl")
	out2 := filepath.Join(dir, "c2.jsonl")
	if _, err := Merge([]string{ordered}, out1); err != nil {
		t.Fatal(err)
	}
	if _, err := Merge([]string{shuffled}, out2); err != nil {
		t.Fatal(err)
	}
	d1, err := os.ReadFile(out1)
	if err != nil {
		t.Fatal(err)
	}
	d2, err := os.ReadFile(out2)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(d1, d2) {
		t.Errorf("merge did not canonicalize append order:\n%s\nvs\n%s", d1, d2)
	}
}

// TestMergeDropsTornSourceTails merges a source left torn by a crashed
// worker: the torn line is dropped, complete records survive.
func TestMergeDropsTornSourceTails(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "torn.jsonl")
	a := map[string]string{"f": "x"}
	writeJournal(t, src, rec("e", 0, 0, a, map[string]float64{"ms": 5}))
	f, err := os.OpenFile(src, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"experiment":"e","ro`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	out := filepath.Join(dir, "merged.jsonl")
	ms, err := Merge([]string{src}, out)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Kept != 1 || ms.TornSources != 1 {
		t.Errorf("stats = %+v, want kept 1 torn-sources 1", ms)
	}
	got, err := LoadRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Responses["ms"] != 5 {
		t.Errorf("merged records = %+v", got)
	}
}

func TestMergeErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := Merge(nil, filepath.Join(dir, "out.jsonl")); err == nil {
		t.Error("merge with no sources should error")
	}
	if _, err := Merge([]string{filepath.Join(dir, "absent.jsonl")}, filepath.Join(dir, "out.jsonl")); err == nil {
		t.Error("merge with a missing source should error")
	}
	src := filepath.Join(dir, "src.jsonl")
	writeJournal(t, src, rec("e", 0, 0, map[string]string{"f": "x"}, map[string]float64{"ms": 1}))
	if _, err := Merge([]string{src}, ""); err == nil {
		t.Error("merge with an empty destination should error")
	}
}

// TestInspect reports record counts and torn tails without touching the
// file.
func TestInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "j.jsonl")
	a := map[string]string{"f": "x"}
	writeJournal(t, path,
		rec("e", 0, 0, a, map[string]float64{"ms": 1}),
		rec("e", 0, 0, a, map[string]float64{"ms": 2}), // supersedes
		rec("e", 0, 1, a, map[string]float64{"ms": 3}),
	)
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"experiment":"e","ro`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != 3 || info.Distinct != 2 || !info.Torn {
		t.Errorf("info = %+v, want records 3 distinct 2 torn", info)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(before, after) {
		t.Error("Inspect modified the file")
	}
	if _, err := Inspect(filepath.Join(dir, "absent.jsonl")); err == nil {
		t.Error("Inspect of a missing file should error")
	}
}

// TestMergeIntraSourceSupersedeIsNotAConflict pins the conflict
// semantics to cross-source disagreement only: a key re-measured within
// one source is an ordinary last-wins supersede, never a Conflict — a
// strict merge of a perfectly ordinary journal must not abort.
func TestMergeIntraSourceSupersedeIsNotAConflict(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	a := map[string]string{"f": "x"}
	writeJournal(t, src,
		rec("e", 0, 0, a, map[string]float64{"ms": 1}),
		rec("e", 0, 0, a, map[string]float64{"ms": 2}), // re-measured: supersedes
	)
	out := filepath.Join(dir, "merged.jsonl")
	ms, err := MergeChecked([]string{src}, out, true)
	if err != nil {
		t.Fatalf("strict merge of an ordinary superseding journal failed: %v", err)
	}
	if len(ms.Conflicts) != 0 {
		t.Errorf("intra-source supersede reported as conflict: %+v", ms.Conflicts)
	}
	if ms.Kept != 1 || ms.Superseded != 1 {
		t.Errorf("stats = %+v, want kept 1 superseded 1", ms)
	}
	got, err := LoadRecords(out)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || got[0].Responses["ms"] != 2 {
		t.Errorf("merged records = %+v, want the superseding value", got)
	}
}

// TestMergeDisagreeThenReagree pins what a Conflict is measured against:
// the winner at that moment. Source 0 holds A; source 1 holds B, then A′
// with A's measurement. B disagreed with A when it was read, so that is
// one Conflict; A′ superseded B inside its own source, which is none —
// even though the merge ends up holding what source 0 held all along.
func TestMergeDisagreeThenReagree(t *testing.T) {
	dir := t.TempDir()
	a := map[string]string{"f": "x"}
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	writeJournal(t, s0, rec("e", 0, 0, a, map[string]float64{"ms": 10}))
	writeJournal(t, s1,
		rec("e", 0, 0, a, map[string]float64{"ms": 11}),
		rec("e", 0, 0, a, map[string]float64{"ms": 10}),
	)
	ms, err := Merge([]string{s0, s1}, filepath.Join(dir, "merged.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	want := []Conflict{{Key: Key("e", AssignmentHash(a), 0), Earlier: s0, Later: s1}}
	if !slices.Equal(ms.Conflicts, want) || ms.Kept != 1 || ms.Superseded != 2 {
		t.Errorf("stats = %+v, want kept 1, superseded 2 and conflicts %+v", ms, want)
	}
}

// TestMergeErrorPrecedence: sources are read side by side, but the error
// of a failing merge is the one reading them one after another meets
// first — the lowest-numbered failing source's — and every reader that
// was opened on the way is closed.
func TestMergeErrorPrecedence(t *testing.T) {
	openFiles := func() int {
		fds, err := os.ReadDir("/proc/self/fd")
		if err != nil {
			t.Skip("no /proc/self/fd to count open files with")
		}
		return len(fds)
	}
	dir := t.TempDir()
	good := filepath.Join(dir, "good.jsonl")
	writeBulkJournal(t, good, "prec", 200, 2, "x")
	data, err := os.ReadFile(good)
	if err != nil {
		t.Fatal(err)
	}
	corrupt := filepath.Join(dir, "corrupt.jsonl")
	if err := os.WriteFile(corrupt, slices.Concat(data[:len(data)/2], []byte("not a record\n"), data[len(data)/2:]), 0o644); err != nil {
		t.Fatal(err)
	}
	srcs := []string{good, corrupt, filepath.Join(dir, "absent.jsonl"), good, good}
	_, _, wantErr := referencePlanMerge(srcs)
	if wantErr == nil || !strings.Contains(wantErr.Error(), corrupt) {
		t.Fatalf("reference error = %v, want the corrupt source's", wantErr)
	}
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	for _, procs := range []int{1, 2, 8} {
		runtime.GOMAXPROCS(procs)
		before := openFiles()
		_, err := Merge(srcs, filepath.Join(dir, "merged.jsonl"))
		if err == nil || err.Error() != wantErr.Error() {
			t.Errorf("GOMAXPROCS %d: Merge error = %v, want %v", procs, err, wantErr)
		}
		if after := openFiles(); after != before {
			t.Errorf("GOMAXPROCS %d: %d file(s) open after a failed merge, %d before it", procs, after, before)
		}
	}
}
