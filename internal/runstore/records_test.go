package runstore

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

// entriesThenRead is what Records replaces for a consumer that wants
// every frame: the index pass, then one positioned read per entry.
func entriesThenRead(t *testing.T, r SourceReader) []Record {
	t.Helper()
	var out []Record
	for e, err := range r.Entries() {
		if err != nil {
			t.Fatal(err)
		}
		rec, err := r.Read(e.Ext)
		if err != nil {
			t.Fatal(err)
		}
		out = append(out, rec)
	}
	return out
}

// TestRecordsIsEntriesPlusRead: one pass behind both projections. Records
// yields, frame for frame and superseded frames included, what Entries
// followed by Read yields — for both codecs, over hand-edited lines, a
// missing hash (derived) and a torn tail — leaves the same Info behind,
// and either pass may follow the other.
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
		`{"experiment":"e","row":3,"replicate":0,"assignment":{"f":"x"},"responses":{"ms":1}}`, // no hash
		` {"replicate":1, "experiment":"e", "hash":"h", "responses":{"ms":2}, "extra":true}`,   // hand-edited
		`{"experiment":"e","row":4,"repl`) // torn
	if err := os.WriteFile(jsonl, []byte(strings.Join(lines, "\n")), 0o644); err != nil {
		t.Fatal(err)
	}
	binj := filepath.Join(dir, "run.binj")
	j, err := OpenBinary(binj)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
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
		want := entriesThenRead(t, r)
		wantInfo := r.Info()
		got, err := Collect(r.Records())
		if err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(got, want) || len(got) < len(recs)-1 { // the torn tail costs at most one frame
			t.Errorf("%s: Records yields\n %+v\nEntries+Read yields\n %+v", path, got, want)
		}
		if info := r.Info(); info != wantInfo || !info.Torn {
			t.Errorf("%s: Info after Records = %+v, after Entries %+v (want torn)", path, info, wantInfo)
		}
		for _, rec := range got {
			if rec.Hash == "" {
				t.Errorf("%s: Records left %+v without its hash", path, rec)
			}
		}
		if again := entriesThenRead(t, r); !reflect.DeepEqual(again, want) {
			t.Errorf("%s: an Entries pass after a Records pass differs", path)
		}
		// Stopping early is not an error and leaves the reader usable.
		for range r.Records() {
			break
		}
		if again, err := Collect(r.Records()); err != nil || !reflect.DeepEqual(again, want) {
			t.Errorf("%s: a Records pass after an abandoned one: %v", path, err)
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
	if _, err := Collect(r.Records()); err == nil || !strings.Contains(err.Error(), bad) || !strings.Contains(err.Error(), "corrupt journal line at byte") {
		t.Errorf("Records over a corrupt interior line: %v", err)
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
		ext  string
		open func(string) (*Journal, error)
	}{{".jsonl", Open}, {BinaryExt, OpenBinary}} {
		path := filepath.Join(t.TempDir(), "run"+open.ext)
		j, err := open.open(path)
		if err != nil {
			t.Fatal(err)
		}
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
		if err := j.AppendBatch(batch); err != nil {
			t.Fatal(err)
		}
		j.Close()
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
