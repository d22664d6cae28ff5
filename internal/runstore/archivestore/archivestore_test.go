package archivestore

import (
	"bytes"
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
	e0 := a.idx[runstore.Key("e", hashOf(r0), 0)]
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte of the first record block.
	f, err := os.OpenFile(path, os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteAt([]byte{0xAA}, e0.off+int64(e0.n)-1); err != nil {
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
	// Hand-build an unfinalized file: header, record, future-type frame,
	// record — the shape a crashed future-version writer leaves behind.
	data := []byte(Magic)
	data = appendFrame(data, blockRecord, runstore.AppendBinary(nil, r0))
	data = appendFrame(data, 42, []byte("future auxiliary data"))
	data = appendFrame(data, blockRecord, runstore.AppendBinary(nil, r1))
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
	got, err := runstore.LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	info, err := runstore.Inspect(path)
	if err != nil || info.Torn {
		t.Fatalf("fresh bulk archive reported torn: %+v", info)
	}
	if info.Records != len(recs) || info.Distinct != len(recs) {
		t.Fatalf("info = %+v, want %d records", info, len(recs))
	}
	if len(got) != len(recs) {
		t.Fatalf("LoadRecords returned %d records, want %d", len(got), len(recs))
	}
	for i := range got {
		want := recs[i]
		want.Hash = hashOf(want)
		if !reflect.DeepEqual(got[i], want) {
			t.Fatalf("LoadRecords[%d] = %+v, want %+v", i, got[i], want)
		}
	}
	if !strings.Contains(info.Detail, "footer ok") {
		t.Fatalf("Inspect detail %q should report the footer", info.Detail)
	}

	// A truncated bulk archive is detected, reported, and still loadable
	// up to the damage — never silently counted as complete.
	st, _ := os.Stat(path)
	if err := os.Truncate(path, st.Size()-int64(trailerSize)-1); err != nil {
		t.Fatal(err)
	}
	info, err = runstore.Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if !info.Torn || !strings.Contains(info.Detail, "TRUNCATED") {
		t.Fatalf("Inspect of truncated archive = %+v, want Torn + TRUNCATED detail", info)
	}
	if got, err = runstore.LoadRecords(path); err != nil || len(got) != len(recs) {
		t.Fatalf("LoadRecords of truncated archive: %d record(s), %v; want all %d", len(got), err, len(recs))
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
	recs, err := runstore.LoadRecords(path)
	if err != nil {
		t.Fatalf("compacted file is not an archive: %v", err)
	}
	if info, err := runstore.Inspect(path); err != nil || len(recs) != 3 || info.Torn {
		t.Fatalf("compacted archive: %d records, %+v, %v", len(recs), info, err)
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
	if _, err := runstore.Inspect(renamed); err != nil {
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
	if info.Records != len(want) || !strings.Contains(info.Detail, "archive v3:") {
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

// lastWins is the view of appends: each key's last record, in the order
// the keys first appeared.
func lastWins(appends []runstore.Record) []runstore.Record {
	var out []runstore.Record
	at := map[string]int{}
	for _, r := range appends {
		if i, ok := at[r.Key()]; ok {
			out[i] = r
			continue
		}
		at[r.Key()] = len(out)
		out = append(out, r)
	}
	return out
}

// TestCutAtEveryByte crashes a live archive at every byte: a file written
// by appends, Close, a reopen, one batch (a record in it superseding an
// earlier one, an index page falling due inside it) and Close is cut at
// every length from the header to EOF. Each cut opens and serves the
// last-wins view of a prefix of the acknowledged appends — a longer
// prefix, or the same, the longer the cut, so a batch cut short leaves a
// prefix of its records — and Close then leaves a file that reopens
// finalized, serving the same.
func TestCutAtEveryByte(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.arch")
	var acked []runstore.Record
	for session, rows := range [][]int{{0, 1, 2}, {3, 0, 4}} {
		a, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		a.interval = 2 // index pages mid-stream, and one the reopen's batch writes
		var batch []runstore.Record
		for _, row := range rows {
			r := rec("e", row, 0, float64(10*session+row))
			if session == 0 {
				if err := a.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			batch = append(batch, r)
			r.Hash = hashOf(r)
			acked = append(acked, r)
		}
		if session == 1 {
			if err := a.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cutPath, prefix := filepath.Join(dir, "cut.arch"), 0
	served := func(cut int, stage string) []runstore.Record {
		t.Helper()
		a, err := Open(cutPath)
		if err != nil {
			t.Fatalf("cut at %d, %s: %v", cut, stage, err)
		}
		got, err := runstore.Collect(a.Scan())
		if err != nil {
			t.Fatalf("cut at %d, %s: %v", cut, stage, err)
		}
		if stage == "reopen" && a.dirty {
			t.Fatalf("cut at %d: Close left a file that does not reopen finalized", cut)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		return got
	}
	for cut := len(Magic); cut <= len(data); cut++ {
		if err := os.WriteFile(cutPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		got := served(cut, "open")
		for prefix < len(acked) && len(got) > 0 && !reflect.DeepEqual(got, lastWins(acked[:prefix])) {
			prefix++
		}
		if want := lastWins(acked[:prefix]); len(got)+len(want) > 0 && !reflect.DeepEqual(got, want) {
			t.Fatalf("cut at %d serves %+v: not the view of %d or more acknowledged appends", cut, got, prefix)
		}
		if again := served(cut, "reopen"); !reflect.DeepEqual(again, got) {
			t.Fatalf("cut at %d: the reopened file serves %+v, the cut %+v", cut, again, got)
		}
	}
	if prefix != len(acked) {
		t.Fatalf("the whole file serves %d acknowledged appends, want all %d", prefix, len(acked))
	}
}

// TestZeroFilledTailIsTorn: zero bytes after a version-3 archive's last
// frame — what a file the filesystem had extended reads back as when a
// crash kept the data from being written — end the readable region as a
// torn tail, after a finalized file and after an unfinalized one: every
// reader serves the record before them, and Open truncates them away.
func TestZeroFilledTailIsTorn(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	r := rec("e", 0, 0, 1)
	if err := Write(path, runstore.Seq([]runstore.Record{r}), ""); err != nil {
		t.Fatal(err)
	}
	r.Hash = hashOf(r)
	finalized, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	first := blocksOf(finalized)[0]
	for name, clean := range map[string][]byte{"finalized": finalized, "unfinalized": finalized[:first.off+first.n]} {
		if err := os.WriteFile(path, append(bytes.Clone(clean), make([]byte, 4096)...), 0o644); err != nil {
			t.Fatal(err)
		}
		if info, err := runstore.Inspect(path); err != nil || !info.Torn || info.Records != 1 {
			t.Errorf("%s: Inspect = %+v, %v; want one record and a torn tail", name, info, err)
		}
		if got, err := runstore.LoadRecords(path); err != nil || !reflect.DeepEqual(got, []runstore.Record{r}) {
			t.Errorf("%s: LoadRecords = %+v, %v", name, got, err)
		}
		a, err := Open(path)
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if got, err := runstore.Collect(a.Scan()); err != nil || !a.Torn() || !reflect.DeepEqual(got, []runstore.Record{r}) {
			t.Errorf("%s: Open serves %+v, %v (torn %v)", name, got, err, a.Torn())
		}
		a.Close()
		if got, _ := os.ReadFile(path); bytes.Contains(got, make([]byte, 64)) {
			t.Errorf("%s: the zeros survived Open + Close", name)
		}
	}
}
