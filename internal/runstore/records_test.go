package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// entriesThenRead is what the field pass replaces for a consumer that
// wants every frame: the index pass, then one positioned read per entry.
func entriesThenRead(t *testing.T, r SourceReader) (recs []Record, entries []SourceEntry) {
	t.Helper()
	for e, err := range r.Entries() {
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Read(e.Ext)
		if err != nil {
			t.Fatal(err)
		}
		recs, entries = append(recs, rec), append(entries, e)
	}
	return recs, entries
}

// fieldsPass consumes r's field pass, copying out of the view at every
// step what the step is supposed to hold: the record, its fingerprint and
// whether its members strictly ascend.
func fieldsPass(t *testing.T, r SourceReader) (recs []Record, fps []uint64) {
	t.Helper()
	var view *Fields
	for f, err := range r.Fields() {
		if err != nil {
			t.Fatal(err)
		}
		if view != nil && f != view {
			t.Fatal("the field pass handed out a second view")
		}
		view = f
		if !membersAscend(f) {
			t.Fatalf("members of %s/%s/%d out of key order: %q, %+v", f.Experiment, f.Hash, f.Replicate, f.Assignment(), f.Responses())
		}
		recs, fps = append(recs, f.Record()), append(fps, f.Fingerprint())
	}
	return recs, fps
}

// TestRecordsIsEntriesPlusRead: one pass behind both projections. The
// field pass yields, frame for frame and superseded frames included, the
// fields of what Entries followed by Read yields — for both codecs, over
// hand-edited lines (repeated and descending keys, escapes, an unknown
// field), a missing hash (derived) and a torn tail — through one reused
// view, leaves the same Info behind, and either pass may follow the other.
func TestRecordsIsEntriesPlusRead(t *testing.T) {
	t.Parallel()
	dir := t.TempDir()
	recs := codecCases()
	recs = append(recs, recs[1], recs[0]) // superseded frames
	jsonl := filepath.Join(dir, "run.jsonl")
	var lines []string
	for _, rec := range recs {
		line, err := AppendJSON(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		lines = append(lines, string(line))
	}
	lines = append(lines,
		`{"experiment":"e","row":3,"replicate":0,"assignment":{"f":"x"},"responses":{"ms":1}}`,                                                // no hash
		` {"replicate":1, "experiment":"e", "hash":"h", "responses":{"ms":2}, "extra":true}`,                                                  // hand-edited
		`{"experiment":"e","row":5,"replicate":2,"hash":"h","assignment":{"g":"1","f":"2","g":"3"},"responses":{"ms":-0,"io":1,"a\u0062":2}}`, // descending, repeated, escaped
		`{"experiment":"e","row":4,"repl`) // torn
	if err := os.WriteFile(jsonl, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	binj := filepath.Join(dir, "run.binj")
	writeBinary(t, binj, recs)
	st, _ := os.Stat(binj)
	if err := os.Truncate(binj, st.Size()-3); err != nil {
		t.Fatal(err)
	}

	for _, path := range []string{jsonl, binj} {
		r, err := OpenSource(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		want, entries := entriesThenRead(t, r)
		wantInfo := r.Info()
		got, fps := fieldsPass(t, r)
		if !reflect.DeepEqual(got, want) || len(got) < len(recs)-1 { // the torn tail costs at most one frame
			t.Errorf("%s: Fields yields\n %+v\nEntries+Read yields\n %+v", path, got, want)
		}
		if info := r.Info(); info != wantInfo || !info.Torn {
			t.Errorf("%s: Info after Fields = %+v, after Entries %+v (want torn)", path, info, wantInfo)
		}
		for i, rec := range got {
			if rec.Hash == "" {
				t.Errorf("%s: Fields left %+v without its hash", path, rec)
			}
			if fps[i] != Fingerprint(rec) || fps[i] != entries[i].Fp {
				t.Errorf("%s: frame %d fingerprints as %x in the view, %x decoded, %x in its entry", path, i, fps[i], Fingerprint(rec), entries[i].Fp)
			}
		}
		if again, _ := entriesThenRead(t, r); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: an Entries pass after a Fields pass differs", path)
		}
		// Stopping early is not an error and leaves the reader usable.
		for range r.Fields() {
			break
		}
		if again, _ := fieldsPass(t, r); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: a Fields pass after an abandoned one differs", path)
		}
	}

	// A corrupt interior frame is the pass's error, naming the file.
	bad := filepath.Join(dir, "bad.jsonl")
	if err := os.WriteFile(bad, []byte(lines[0]+"\n{\"experiment\":\n"+lines[1]+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	r, err := OpenSource(bad)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var failed error
	for _, err := range r.Fields() {
		failed = err
	}
	if failed == nil || !strings.Contains(failed.Error(), bad) || !strings.Contains(failed.Error(), "corrupt journal line at byte") {
		t.Errorf("Fields over a corrupt interior line: %v", failed)
	}
}

// TestScanFileReadsAheadInAnyOrder: ScanFile's read pass goes through the
// read-ahead window, which winners in file order fill once per 64 KiB —
// and which a winner far behind or ahead of the last one must not confuse.
// A journal several windows long, its early keys superseded at the end in
// reverse order, still scans to the distinct last-wins records in
// first-appended order.
func TestScanFileReadsAheadInAnyOrder(t *testing.T) {
	t.Parallel()
	for _, open := range []struct {
		ext   string
		write func(path string, recs []Record)
	}{{".jsonl", func(path string, recs []Record) {
		j, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.AppendBatch(recs); err != nil {
			t.Fatal(err)
		}
		j.Close()
	}}, {BinaryExt, func(path string, recs []Record) { writeBinary(t, path, recs) }}} {
		path := filepath.Join(t.TempDir(), "run"+open.ext)
		mk := func(i int, v float64) Record {
			return rec("e", i, 0, map[string]string{"f": fmt.Sprintf("level-%04d-%s", i, strings.Repeat("x", 150))}, map[string]float64{"ms": v})
		}
		const n = 1200 // ≈ 300 KiB of frames
		var batch []Record
		for i := 0; i < n; i++ {
			batch = append(batch, mk(i, float64(i)))
		}
		for i := 40; i >= 0; i -= 4 { // supersede early keys, last first
			batch = append(batch, mk(i, -float64(i)))
		}
		open.write(path, batch)
		if st, _ := os.Stat(path); st.Size() < 3*readAhead {
			t.Fatalf("fixture is %d bytes, want several read-ahead windows", st.Size())
		}
		got, err := Collect(ScanFile(path))
		if err != nil {
			t.Fatal(err)
		}
		if len(got) != n {
			t.Fatalf("%s: ScanFile yields %d record(s), want %d", open.ext, len(got), n)
		}
		for i, rec := range got {
			want := float64(i)
			if i <= 40 && i%4 == 0 {
				want = -want
			}
			if rec.Row != i || rec.Responses["ms"] != want {
				t.Fatalf("%s: record %d = row %d, ms %v; want row %d, ms %v", open.ext, i, rec.Row, rec.Responses["ms"], i, want)
			}
		}
	}
}
