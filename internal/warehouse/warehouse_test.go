package warehouse

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// mkRec builds one record the way the harness does: the hash is the
// assignment's canonical hash, so cell identities match across stores.
func mkRec(exp string, assign map[string]string, rep int, resps map[string]float64) runstore.Record {
	return runstore.Record{
		Experiment: exp,
		Replicate:  rep,
		Hash:       runstore.AssignmentHash(assign),
		Assignment: assign,
		Responses:  resps,
	}
}

// writeJournal writes recs as a JSONL journal at path and pins its
// modification time so run ordering is deterministic.
func writeJournal(t *testing.T, path string, recs []runstore.Record, mod time.Time) {
	t.Helper()
	j, err := runstore.Open(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mod, mod); err != nil {
		t.Fatal(err)
	}
}

// writeBinary is writeJournal for the binary record format: the journal
// is written outside path's directory, and Merge writes it into path.
func writeBinary(t *testing.T, path string, recs []runstore.Record, mod time.Time) {
	t.Helper()
	journal := filepath.Join(t.TempDir(), "src.jsonl")
	writeJournal(t, journal, recs, mod)
	if _, err := runstore.Merge([]string{journal}, path); err != nil {
		t.Fatal(err)
	}
	if err := os.Chtimes(path, mod, mod); err != nil {
		t.Fatal(err)
	}
}

// openTest opens a warehouse over root with a private metrics registry
// and a fixed clock.
func openTest(t *testing.T, root string) *Warehouse {
	t.Helper()
	w, err := Open(root, Options{
		Metrics: obs.NewRegistry(),
		Clock:   func() time.Time { return time.Unix(1000, 0) },
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { w.Close() })
	return w
}

var baseTime = time.Unix(500, 0)

func TestDiscoverSkips(t *testing.T) {
	root := t.TempDir()
	recs := []runstore.Record{mkRec("e", map[string]string{"f": "x"}, 0, map[string]float64{"ms": 1})}
	writeJournal(t, filepath.Join(root, "a.jsonl"), recs, baseTime)
	writeBinary(t, filepath.Join(root, "sub", "b.binj"), recs, baseTime)
	// Everything below must be invisible to the catalog.
	writeJournal(t, filepath.Join(root, collectorStateFile), recs, baseTime)
	writeJournal(t, filepath.Join(root, ".hidden.jsonl"), recs, baseTime)
	writeJournal(t, filepath.Join(root, ".snapshots", "c.jsonl"), recs, baseTime)
	for _, name := range []string{IndexFile, "readme.txt"} {
		if err := os.WriteFile(filepath.Join(root, name), []byte("x"), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	got, err := Discover(root)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"a.jsonl", "sub/b.binj"}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("Discover = %v, want %v", got, want)
	}
}

func TestRefreshIncremental(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	writeJournal(t, filepath.Join(root, "a.jsonl"), []runstore.Record{
		mkRec("e", cell, 0, map[string]float64{"ms": 1}),
		mkRec("e", cell, 1, map[string]float64{"ms": 3}),
	}, baseTime)
	writeBinary(t, filepath.Join(root, "b.binj"), []runstore.Record{
		mkRec("e", cell, 0, map[string]float64{"ms": 2}),
	}, baseTime.Add(time.Second))

	w := openTest(t, root)
	rs, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Candidates != 2 || rs.Ingested != 2 || rs.Unchanged != 0 || rs.Records != 3 {
		t.Fatalf("first refresh = %+v", rs)
	}
	runs := w.Runs()
	if len(runs) != 2 || runs[0].Path != "a.jsonl" || runs[1].Path != "b.binj" {
		t.Fatalf("runs = %+v", runs)
	}
	if runs[0].Format != "journal" || runs[1].Format != "binary" {
		t.Fatalf("formats = %s, %s", runs[0].Format, runs[1].Format)
	}

	// Second refresh: stat-only, nothing re-read.
	rs, err = w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ingested != 0 || rs.Unchanged != 2 {
		t.Fatalf("second refresh = %+v, want all unchanged", rs)
	}

	// Appending to one source re-ingests exactly that source.
	writeJournal(t, filepath.Join(root, "a.jsonl"), []runstore.Record{
		mkRec("e", cell, 2, map[string]float64{"ms": 5}),
	}, baseTime.Add(2*time.Second))
	rs, err = w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ingested != 1 || rs.Unchanged != 1 || rs.Records != 3 {
		t.Fatalf("refresh after append = %+v", rs)
	}
	for _, r := range w.Runs() {
		if r.Path == "a.jsonl" {
			if r.Records != 3 || r.Cells[0].N != 3 {
				t.Fatalf("a.jsonl after re-ingest = %+v", r)
			}
		}
	}
}

func TestRefreshKeepsIngestTimeWhenContentUnchanged(t *testing.T) {
	root := t.TempDir()
	path := filepath.Join(root, "a.jsonl")
	writeJournal(t, path, []runstore.Record{
		mkRec("e", map[string]string{"f": "x"}, 0, map[string]float64{"ms": 1}),
	}, baseTime)

	now := time.Unix(1000, 0)
	w, err := Open(root, Options{Metrics: obs.NewRegistry(), Clock: func() time.Time { return now }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	first := w.Runs()[0].IngestTimeNS

	// Touch the file: same bytes, new modification time. The re-ingest
	// must recognize the unchanged fingerprint and keep the ingest time.
	if err := os.Chtimes(path, baseTime.Add(time.Hour), baseTime.Add(time.Hour)); err != nil {
		t.Fatal(err)
	}
	now = time.Unix(2000, 0)
	rs, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ingested != 1 {
		t.Fatalf("touched file not re-ingested: %+v", rs)
	}
	if got := w.Runs()[0].IngestTimeNS; got != first {
		t.Fatalf("ingest time changed on touch: %d -> %d", first, got)
	}
}

// TestCompactOfCompactRunIsInvisible: compacting a run that has nothing
// to drop does not rewrite it, so the catalog's stat-skip still holds
// and the run keeps its place in the history — runs are ordered by
// modification time, and a rewrite used to move the oldest run to the
// end of every history, trends and regressions answer.
func TestCompactOfCompactRunIsInvisible(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	names := []string{"oldest.jsonl", "middle.binj", "newest.jsonl"}
	for i, name := range names {
		write := writeJournal
		if filepath.Ext(name) == runstore.BinaryExt {
			write = writeBinary
		}
		write(t, filepath.Join(root, name), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": float64(i)}),
			mkRec("e", cell, 1, map[string]float64{"ms": float64(i) + 0.5}),
		}, baseTime.Add(time.Duration(i)*time.Second))
	}
	w := openTest(t, root)
	if rs, err := w.Refresh(); err != nil || rs.Ingested != 3 {
		t.Fatalf("first refresh = %+v, %v", rs, err)
	}
	before := w.Runs()

	for _, name := range names[:2] {
		cs, err := runstore.Compact(filepath.Join(root, name), "")
		if err != nil || !cs.Unchanged || cs.Kept != 2 {
			t.Fatalf("Compact(%s) = %+v, %v; want unchanged", name, cs, err)
		}
	}
	rs, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Unchanged != 3 || rs.Ingested != 0 {
		t.Fatalf("refresh after a no-op compact = %+v, want 3 unchanged and none ingested", rs)
	}
	after := w.Runs()
	if !reflect.DeepEqual(after, before) {
		t.Fatalf("runs changed across a no-op compact:\n%+v\n%+v", before, after)
	}
	for i, r := range after {
		if r.Path != names[i] {
			t.Fatalf("run %d is %s, want %s", i, r.Path, names[i])
		}
	}
}

func TestVanishedSourcesStayQueryable(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	for i, mod := range []time.Time{baseTime, baseTime.Add(time.Second)} {
		writeJournal(t, filepath.Join(root, []string{"a.jsonl", "b.jsonl"}[i]), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": float64(i + 1)}),
			mkRec("e", cell, 1, map[string]float64{"ms": float64(i + 2)}),
		}, mod)
	}
	w := openTest(t, root)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	before, err := w.Query(Request{Kind: KindHistory, Cell: runstore.AssignmentHash(cell)})
	if err != nil {
		t.Fatal(err)
	}
	if len(before.History) != 2 {
		t.Fatalf("history = %d points, want 2", len(before.History))
	}

	// Delete every source file. The warehouse is the history: queries
	// must answer identically — the proof no record block is rescanned.
	for _, name := range []string{"a.jsonl", "b.jsonl"} {
		if err := os.Remove(filepath.Join(root, name)); err != nil {
			t.Fatal(err)
		}
	}
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	after, err := w.Query(Request{Kind: KindHistory, Cell: runstore.AssignmentHash(cell)})
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(before, after) {
		t.Fatalf("history changed after sources vanished:\n%+v\n!=\n%+v", before, after)
	}
}

func TestPruneTombstones(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	names := []string{"a.jsonl", "b.jsonl", "c.jsonl"}
	for i, name := range names {
		writeJournal(t, filepath.Join(root, name), []runstore.Record{
			mkRec("e", cell, 0, map[string]float64{"ms": float64(i + 1)}),
		}, baseTime.Add(time.Duration(i)*time.Second))
	}
	w := openTest(t, root)
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}

	ps, err := w.Prune(Retention{KeepRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Pruned != 2 || ps.Kept != 1 {
		t.Fatalf("prune = %+v, want 2 pruned / 1 kept", ps)
	}
	runs := w.Runs()
	if len(runs) != 1 || runs[0].Path != "c.jsonl" {
		t.Fatalf("live runs after prune = %+v, want only the newest", runs)
	}
	res, err := w.Query(Request{Kind: KindHistory, Cell: runstore.AssignmentHash(cell)})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.History) != 1 || res.History[0].Mean != 3 {
		t.Fatalf("history after prune = %+v, want only c.jsonl's point", res.History)
	}

	// Refresh must not resurrect pruned runs: their sources are
	// unchanged, so the tombstones' stat-match skips them.
	rs, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ingested != 0 || rs.Unchanged != 3 {
		t.Fatalf("refresh after prune = %+v, want all unchanged", rs)
	}
	if got := w.Runs(); len(got) != 1 {
		t.Fatalf("pruned runs resurrected: %+v", got)
	}

	// Prune is idempotent for a fixed policy.
	ps, err = w.Prune(Retention{KeepRuns: 1})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Pruned != 0 || ps.Kept != 1 {
		t.Fatalf("second prune = %+v, want a no-op", ps)
	}

	// A pruned source that actually changes is a new run again.
	writeJournal(t, filepath.Join(root, "a.jsonl"), []runstore.Record{
		mkRec("e", cell, 1, map[string]float64{"ms": 9}),
	}, baseTime.Add(time.Hour))
	rs, err = w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Ingested != 1 {
		t.Fatalf("refresh after pruned source changed = %+v", rs)
	}
	if got := w.Runs(); len(got) != 2 {
		t.Fatalf("changed pruned source not re-ingested: %+v", got)
	}
}

func TestPruneMaxAge(t *testing.T) {
	root := t.TempDir()
	cell := map[string]string{"f": "x"}
	writeJournal(t, filepath.Join(root, "old.jsonl"), []runstore.Record{
		mkRec("e", cell, 0, map[string]float64{"ms": 1}),
	}, time.Unix(100, 0))
	writeJournal(t, filepath.Join(root, "new.jsonl"), []runstore.Record{
		mkRec("e", cell, 0, map[string]float64{"ms": 2}),
	}, time.Unix(900, 0))
	w := openTest(t, root) // clock pinned at t=1000
	if _, err := w.Refresh(); err != nil {
		t.Fatal(err)
	}
	ps, err := w.Prune(Retention{MaxAge: 500 * time.Second})
	if err != nil {
		t.Fatal(err)
	}
	if ps.Pruned != 1 || ps.Kept != 1 {
		t.Fatalf("prune = %+v, want exactly the expired run pruned", ps)
	}
	runs := w.Runs()
	if len(runs) != 1 || runs[0].Path != "new.jsonl" {
		t.Fatalf("live runs = %+v, want only new.jsonl", runs)
	}
}

func TestOpenErrors(t *testing.T) {
	if _, err := Open(filepath.Join(t.TempDir(), "missing"), Options{}); err == nil {
		t.Fatal("Open accepted a missing root")
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(file, Options{}); err == nil {
		t.Fatal("Open accepted a plain file as root")
	}
}
