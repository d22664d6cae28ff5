package archivestore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// rec builds a test record; hash is derived from the assignment on
// append, exactly as the journal derives it.
func rec(exp string, row, rep int, val float64) runstore.Record {
	return runstore.Record{
		Experiment: exp,
		Row:        row,
		Replicate:  rep,
		Assignment: map[string]string{"size": string(rune('a' + row))},
		Responses:  map[string]float64{"t": val},
	}
}

func hashOf(r runstore.Record) string { return runstore.AssignmentHash(r.Assignment) }

func TestRoundTripAndFinalizedReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a.interval = 2 // force index pages mid-stream
	var want []runstore.Record
	for row := 0; row < 3; row++ {
		for rep := 0; rep < 2; rep++ {
			r := rec("e", row, rep, float64(10*row+rep))
			if err := a.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
	}
	check := func(s runstore.Store, stage string) {
		t.Helper()
		for _, w := range want {
			got, ok := s.Lookup(w.Experiment, hashOf(w), w.Replicate)
			if !ok {
				t.Fatalf("%s: Lookup(%s) missed", stage, w.Key())
			}
			if got.Responses["t"] != w.Responses["t"] || got.Row != w.Row {
				t.Fatalf("%s: Lookup(%s) = %+v, want %+v", stage, w.Key(), got, w)
			}
		}
		if n := s.ReplicateCount("e", hashOf(want[0])); n != 2 {
			t.Fatalf("%s: ReplicateCount = %d, want 2", stage, n)
		}
		if n := s.ReplicateCount("e", "absent"); n != 0 {
			t.Fatalf("%s: ReplicateCount(absent) = %d, want 0", stage, n)
		}
		recs, err := runstore.Collect(s.Scan())
		if err != nil {
			t.Fatalf("%s: Scan: %v", stage, err)
		}
		if len(recs) != len(want) {
			t.Fatalf("%s: Records() has %d records, want %d", stage, len(recs), len(want))
		}
		for i := range recs {
			wantKey := runstore.Key(want[i].Experiment, hashOf(want[i]), want[i].Replicate)
			if recs[i].Key() != wantKey {
				t.Fatalf("%s: Records()[%d] = %s, want %s (order)", stage, i, recs[i].Key(), wantKey)
			}
		}
	}
	check(a, "live")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	check(a, "after Close") // reads reopen the file read-only

	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if b.Torn() {
		t.Fatal("finalized archive reported torn on reopen")
	}
	if b.dirty {
		t.Fatal("finalized reopen should not be dirty before any append")
	}
	if len(b.pages) == 0 {
		t.Fatal("finalized reopen loaded no index pages")
	}
	if b.appended != len(want) {
		t.Fatalf("appended = %d, want %d", b.appended, len(want))
	}
	check(b, "finalized reopen")
}

func TestReopenAppendCloseCycles(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	var want []runstore.Record
	for cycle := 0; cycle < 3; cycle++ {
		a, err := Open(path)
		if err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
		a.interval = 2
		for rep := 0; rep < 3; rep++ {
			r := rec("e", cycle, rep, float64(cycle*100+rep))
			if err := a.Append(r); err != nil {
				t.Fatalf("cycle %d: %v", cycle, err)
			}
			want = append(want, r)
		}
		if err := a.Close(); err != nil {
			t.Fatalf("cycle %d: %v", cycle, err)
		}
	}
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", a.Len(), len(want))
	}
	for _, w := range want {
		if _, ok := a.Lookup(w.Experiment, hashOf(w), w.Replicate); !ok {
			t.Fatalf("Lookup(%s) missed after 3 open/append/close cycles", w.Key())
		}
	}
}

func TestLastWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	first := rec("e", 0, 0, 1)
	second := rec("e", 0, 0, 2)
	if err := a.Append(first); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(second); err != nil {
		t.Fatal(err)
	}
	got, ok := a.Lookup("e", hashOf(first), 0)
	if !ok || got.Responses["t"] != 2 {
		t.Fatalf("Lookup = %+v ok=%v, want the re-appended record", got, ok)
	}
	if got, err := runstore.Collect(a.Scan()); err != nil || len(got) != 1 {
		t.Fatalf("Scan holds %d (err %v), want 1 distinct", len(got), err)
	}
	a.Close()
	b, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer b.Close()
	if got, ok := b.Lookup("e", hashOf(first), 0); !ok || got.Responses["t"] != 2 {
		t.Fatalf("after reopen Lookup = %+v ok=%v, want last-wins record", got, ok)
	}
	if b.appended != 2 {
		t.Fatalf("appended = %d, want 2 (superseded records still counted)", b.appended)
	}
}

// TestTornTailRecovery covers the two crash shapes: garbage appended
// after a finalized archive (trailer invalidated), and a finalize cut
// off mid-footer (no valid trailer at all).
func TestTornTailRecovery(t *testing.T) {
	build := func(t *testing.T) (string, []runstore.Record) {
		path := filepath.Join(t.TempDir(), "run.arch")
		a, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		a.interval = 2
		var want []runstore.Record
		for rep := 0; rep < 5; rep++ {
			r := rec("e", 0, rep, float64(rep))
			if err := a.Append(r); err != nil {
				t.Fatal(err)
			}
			want = append(want, r)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return path, want
	}
	reopenAndCheck := func(t *testing.T, path string, want []runstore.Record) {
		t.Helper()
		a, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		defer a.Close()
		if !a.Torn() {
			t.Fatal("recovery from a damaged tail should report Torn")
		}
		if a.Len() != len(want) {
			t.Fatalf("recovered %d records, want %d", a.Len(), len(want))
		}
		for _, w := range want {
			if got, ok := a.Lookup(w.Experiment, hashOf(w), w.Replicate); !ok || got.Responses["t"] != w.Responses["t"] {
				t.Fatalf("Lookup(%s) after recovery = %+v ok=%v", w.Key(), got, ok)
			}
		}
		// The store stays writable after recovery.
		extra := rec("e", 1, 0, 99)
		if err := a.Append(extra); err != nil {
			t.Fatalf("append after recovery: %v", err)
		}
	}

	t.Run("GarbageAfterTrailer", func(t *testing.T) {
		path, want := build(t)
		f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := f.Write([]byte{blockRecord, 0xff, 0xff}); err != nil {
			t.Fatal(err)
		}
		f.Close()
		reopenAndCheck(t, path, want)
	})

	t.Run("TruncatedFinalize", func(t *testing.T) {
		path, want := build(t)
		st, err := os.Stat(path)
		if err != nil {
			t.Fatal(err)
		}
		// Chop the trailer plus part of the footer: the scan must still
		// recover every record block.
		if err := os.Truncate(path, st.Size()-int64(trailerSize)-3); err != nil {
			t.Fatal(err)
		}
		reopenAndCheck(t, path, want)
	})
}

// TestFinalizedOpenIsIndexOnly proves the O(index) claim structurally: a
// finalized archive whose record block payload is corrupted on disk still
// opens (record payloads are not touched), and only the damaged record
// is lost at Lookup time.
func TestFinalizedOpenIsIndexOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	r0, r1 := rec("e", 0, 0, 1), rec("e", 1, 0, 2)
	if err := a.Append(r0); err != nil {
		t.Fatal(err)
	}
	if err := a.Append(r1); err != nil {
		t.Fatal(err)
	}
	e0 := a.idx[r0.Key()]
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record block.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, e0.off+int64(blockHeaderSize)+5); err != nil {
		t.Fatal(err)
	}
	f.Close()

	b, err := Open(path)
	if err != nil {
		t.Fatalf("finalized open should not read record payloads: %v", err)
	}
	defer b.Close()
	if _, ok := b.Lookup("e", hashOf(r1), 0); !ok {
		t.Fatal("undamaged record lost")
	}
	if _, ok := b.Lookup("e", hashOf(r0), 0); ok {
		t.Fatal("damaged record block should fail its checksum at Lookup time")
	}
}

// TestUnknownBlockTypeSkipped pins the versioning policy of
// docs/FORMAT.md: a checksummed block of an unknown (future) type in the
// data region is skipped by recovery scans, not treated as a torn tail,
// so future writers can interleave auxiliary block types without
// breaking this reader.
func TestUnknownBlockTypeSkipped(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	r0, r1 := rec("e", 0, 0, 7), rec("e", 1, 0, 8)
	r0.Hash, r1.Hash = hashOf(r0), hashOf(r1)
	// Hand-build an unfinalized file: header, record, future-type block,
	// record — the shape a crashed future-version writer leaves behind.
	var data []byte
	data = append(data, Magic...)
	_, p0, err := appendRecordPayload(nil, 1, r0)
	if err != nil {
		t.Fatal(err)
	}
	data = appendBlock(data, blockRecord, p0)
	data = appendBlock(data, 42, []byte("future auxiliary data"))
	_, p1, err := appendRecordPayload(nil, 1, r1)
	if err != nil {
		t.Fatal(err)
	}
	data = appendBlock(data, blockRecord, p1)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if a.Torn() {
		t.Fatal("a valid unknown-type block must not read as a torn tail")
	}
	for _, r := range []runstore.Record{r0, r1} {
		if _, ok := a.Lookup("e", r.Hash, 0); !ok {
			t.Fatalf("record %s lost across an unknown-type block", r.Key())
		}
	}
}

func TestAppendValidationAndClose(t *testing.T) {
	a, err := Open(filepath.Join(t.TempDir(), "run.arch"))
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Append(runstore.Record{}); err == nil {
		t.Fatal("append of a nameless record should fail")
	}
	bad := rec("e", 0, 0, 0)
	bad.Responses["t"] = -1
	bad.Replicate = -1
	if err := a.Append(bad); err == nil {
		t.Fatal("append of a negative replicate should fail")
	}
	good := rec("e", 0, 0, 1)
	if err := a.Append(good); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal("double Close should be a no-op")
	}
	if err := a.Append(rec("e", 0, 1, 1)); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("append after Close = %v, want closed error", err)
	}
	if _, ok := a.Lookup("e", hashOf(good), 0); !ok {
		t.Fatal("reads should keep working after Close")
	}
}

func TestOpenRejectsNonArchive(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.jsonl")
	if err := os.WriteFile(path, []byte(`{"experiment":"e"}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil || !strings.Contains(err.Error(), "not an archive") {
		t.Fatalf("Open(journal) = %v, want bad-magic error", err)
	}
}

func TestBulkWriteLoadInspect(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "bulk.arch")
	var recs []runstore.Record
	for row := 0; row < 4; row++ {
		for rep := 0; rep < 3; rep++ {
			recs = append(recs, rec("bulk", row, rep, float64(row)+float64(rep)/10))
		}
	}
	if err := Write(path, runstore.Seq(recs), ""); err != nil {
		t.Fatal(err)
	}
	got, info, err := Load(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Torn {
		t.Fatalf("fresh bulk archive reported torn: %+v", info)
	}
	if info.Records != len(recs) || info.Distinct != len(recs) {
		t.Fatalf("info = %+v, want %d records", info, len(recs))
	}
	if len(got) != len(recs) {
		t.Fatalf("Load returned %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		want := recs[i]
		want.Hash = hashOf(want)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("Load[%d] = %+v, want %+v", i, got[i], want)
		}
	}
	ins, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if ins.Records != len(recs) || ins.Torn {
		t.Fatalf("Inspect = %+v", ins)
	}
	if !strings.Contains(ins.Detail, "footer ok") {
		t.Fatalf("Inspect detail %q should report the footer", ins.Detail)
	}

	// A truncated bulk archive is detected, reported, and still loadable
	// up to the damage — never silently counted as complete.
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-int64(trailerSize)-1); err != nil {
		t.Fatal(err)
	}
	ins, err = Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if !ins.Torn || !strings.Contains(ins.Detail, "TRUNCATED") {
		t.Fatalf("Inspect of truncated archive = %+v, want Torn + TRUNCATED detail", ins)
	}
	if _, info, err = Load(path); err != nil || !info.Torn {
		t.Fatalf("Load of truncated archive: info=%+v err=%v, want Torn", info, err)
	}
}

// TestCompactDispatch pins the fix for compaction of archives: Compact
// must route archives through the archive reader and writer — in place,
// renamed, or converting — never misparse one as JSONL (which would
// atomically replace it with an empty journal).
func TestCompactDispatch(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.arch")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a.interval = 2
	for rep := 0; rep < 3; rep++ {
		if err := a.Append(rec("e", 0, rep, float64(rep))); err != nil {
			t.Fatal(err)
		}
	}
	// A superseded record, so compaction has something to drop.
	if err := a.Append(rec("e", 0, 1, 42)); err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}

	cs, err := runstore.Compact(path, "")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != 3 || cs.Dropped != 1 {
		t.Fatalf("compact stats = %+v, want kept 3 dropped 1", cs)
	}
	recs, info, err := Load(path)
	if err != nil {
		t.Fatalf("compacted file is not an archive: %v", err)
	}
	if len(recs) != 3 || info.Torn {
		t.Fatalf("compacted archive: %d records, torn=%v", len(recs), info.Torn)
	}
	if recs[1].Responses["t"] != 42 {
		t.Fatalf("compaction lost the last-wins record: %+v", recs[1])
	}
	// Idempotent after the first rewrite.
	before, _ := os.ReadFile(path)
	if _, err := runstore.Compact(path, ""); err != nil {
		t.Fatal(err)
	}
	after, _ := os.ReadFile(path)
	if !reflect.DeepEqual(before, after) {
		t.Fatal("re-compacting a compacted archive is not a byte-identical no-op")
	}
	// A renamed (extension-less) archive compacted in place stays an
	// archive: the sniffed format wins over the absent extension.
	renamed := filepath.Join(dir, "renamed")
	if err := os.Rename(path, renamed); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.Compact(renamed, ""); err != nil {
		t.Fatal(err)
	}
	if _, _, err := Load(renamed); err != nil {
		t.Fatalf("renamed archive became a non-archive after in-place compact: %v", err)
	}
	// Compacting an archive to a .jsonl destination converts.
	asJournal := filepath.Join(dir, "out.jsonl")
	if _, err := runstore.Compact(renamed, asJournal); err != nil {
		t.Fatal(err)
	}
	jrecs, err := runstore.LoadRecords(asJournal)
	if err != nil || len(jrecs) != 3 {
		t.Fatalf("archive→journal compact: %d records, err %v", len(jrecs), err)
	}
}

// TestOversizeKeyRejected pins the u16 length-prefix bound: an
// experiment name that cannot be encoded is rejected at append time,
// not silently wrapped into a corrupt block.
func TestOversizeKeyRejected(t *testing.T) {
	a, err := Open(filepath.Join(t.TempDir(), "run.arch"))
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	huge := rec(strings.Repeat("x", 1<<16), 0, 0, 1)
	if err := a.Append(huge); err == nil || !strings.Contains(err.Error(), "max") {
		t.Fatalf("append of a 64KiB experiment name = %v, want length error", err)
	}
	if a.Len() != 0 {
		t.Fatal("rejected append left index state behind")
	}
}

// TestEmptyHashCanonicalized pins the merge/convert agreement for
// hand-written records lacking a hash: every destination format stores
// the derived hash, so a journal→archive conversion verifies and an
// archive Lookup by derived hash hits.
func TestEmptyHashCanonicalized(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "hand.jsonl")
	line := `{"experiment":"e","row":0,"replicate":0,"assignment":{"k":"v"},"responses":{"t":5}}` + "\n"
	if err := os.WriteFile(jpath, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	apath := filepath.Join(dir, "hand.arch")
	if _, err := runstore.Merge([]string{jpath}, apath); err != nil {
		t.Fatal(err)
	}
	a, err := Open(apath)
	if err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	hash := runstore.AssignmentHash(map[string]string{"k": "v"})
	got, ok := a.Lookup("e", hash, 0)
	if !ok || got.Hash != hash || got.Responses["t"] != 5 {
		t.Fatalf("Lookup by derived hash = %+v ok=%v", got, ok)
	}
}

// TestRunstoreDispatch exercises the format registration end to end:
// journal→archive merge, archive→journal merge, LoadRecords and Inspect
// on archive paths — all through the runstore entry points.
func TestRunstoreDispatch(t *testing.T) {
	dir := t.TempDir()
	jpath := filepath.Join(dir, "run.jsonl")
	j, err := runstore.Open(jpath)
	if err != nil {
		t.Fatal(err)
	}
	var want []runstore.Record
	for row := 0; row < 3; row++ {
		r := rec("e", row, 0, float64(row))
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
		want = append(want, r)
	}
	j.Close()

	apath := filepath.Join(dir, "run.arch")
	ms, err := runstore.Merge([]string{jpath}, apath)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Kept != len(want) {
		t.Fatalf("merge kept %d, want %d", ms.Kept, len(want))
	}
	got, err := runstore.LoadRecords(apath)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != len(want) {
		t.Fatalf("LoadRecords(archive) = %d records, want %d", len(got), len(want))
	}
	info, err := runstore.Inspect(apath)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(want) || !strings.Contains(info.Detail, "archive:") {
		t.Fatalf("runstore.Inspect(archive) = %+v", info)
	}

	// Round-trip back to a journal: the merged journal must equal the
	// canonical merge of the original journal.
	back := filepath.Join(dir, "back.jsonl")
	if _, err := runstore.Merge([]string{apath}, back); err != nil {
		t.Fatal(err)
	}
	canon := filepath.Join(dir, "canon.jsonl")
	if _, err := runstore.Merge([]string{jpath}, canon); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(back)
	b2, _ := os.ReadFile(canon)
	if string(b1) != string(b2) {
		t.Fatalf("journal→archive→journal round-trip is not byte-identical:\n%s\nvs\n%s", b1, b2)
	}
}
