package runstore

import (
	"bytes"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func rec(exp string, row, rep int, a map[string]string, resp map[string]float64) Record {
	return Record{
		Experiment: exp, Row: row, Replicate: rep,
		Hash: AssignmentHash(a), Assignment: a, Responses: resp,
	}
}

func TestAssignmentHashStable(t *testing.T) {
	a := map[string]string{"cache": "1KB", "memory": "4MB"}
	b := map[string]string{"memory": "4MB", "cache": "1KB"}
	if AssignmentHash(a) != AssignmentHash(b) {
		t.Error("hash should be independent of map iteration order")
	}
	c := map[string]string{"cache": "2KB", "memory": "4MB"}
	if AssignmentHash(a) == AssignmentHash(c) {
		t.Error("different assignments should hash differently")
	}
	// Separator robustness: key/value splits must not collide.
	x := map[string]string{"ab": "c"}
	y := map[string]string{"a": "bc"}
	if AssignmentHash(x) == AssignmentHash(y) {
		t.Error("ab=c and a=bc should hash differently")
	}
}

func TestJournalAppendLookupReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a1 := map[string]string{"f": "lo"}
	a2 := map[string]string{"f": "hi"}
	for rep := 0; rep < 3; rep++ {
		if err := j.Append(rec("e1", 0, rep, a1, map[string]float64{"t": float64(10 + rep)})); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Append(rec("e1", 1, 0, a2, map[string]float64{"t": 99})); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 4 {
		t.Errorf("Len = %d, want 4", j.Len())
	}
	got, ok := j.Lookup("e1", AssignmentHash(a1), 2)
	if !ok || got.Responses["t"] != 12 {
		t.Errorf("Lookup = %+v, %v", got, ok)
	}
	if _, ok := j.Lookup("e1", AssignmentHash(a1), 7); ok {
		t.Error("Lookup of absent replicate should miss")
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Len() != 4 || j2.Torn() {
		t.Errorf("reopen: Len = %d, Torn = %v", j2.Len(), j2.Torn())
	}
	recs, err := Collect(j2.Scan())
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 4 || recs[3].Responses["t"] != 99 {
		t.Errorf("Records = %+v", recs)
	}
}

func TestJournalTornTailRecovery(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a := map[string]string{"f": "lo"}
	if err := j.Append(rec("e", 0, 0, a, map[string]float64{"t": 1})); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec("e", 0, 1, a, map[string]float64{"t": 2})); err != nil {
		t.Fatal(err)
	}
	j.Close()

	// Simulate a crash mid-append: a torn, unterminated trailing line.
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"experiment":"e","row":0,"rep`); err != nil {
		t.Fatal(err)
	}
	f.Close()

	j2, err := Open(path)
	if err != nil {
		t.Fatalf("torn tail should be recovered, got %v", err)
	}
	if !j2.Torn() {
		t.Error("Torn() should report the truncated tail")
	}
	if j2.Len() != 2 {
		t.Errorf("Len after recovery = %d, want 2", j2.Len())
	}
	// The journal must stay appendable after recovery.
	if err := j2.Append(rec("e", 0, 2, a, map[string]float64{"t": 3})); err != nil {
		t.Fatal(err)
	}
	j2.Close()
	j3, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j3.Close()
	if j3.Len() != 3 || j3.Torn() {
		t.Errorf("after recovery+append: Len = %d, Torn = %v", j3.Len(), j3.Torn())
	}
}

func TestJournalCorruptMiddleLineRejected(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{},"responses":{"t":1}}
not json at all
{"experiment":"e","row":0,"replicate":1,"hash":"h","assignment":{},"responses":{"t":2}}
`
	if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Open(path); err == nil {
		t.Fatal("corrupt middle line should be an error, not silently skipped")
	}
}

func TestJournalAppendValidation(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	a := map[string]string{"f": "lo"}
	if err := j.Append(rec("", 0, 0, a, nil)); err == nil {
		t.Error("empty experiment should be rejected")
	}
	if err := j.Append(rec("e", 0, -1, a, nil)); err == nil {
		t.Error("negative replicate should be rejected")
	}
	if err := j.Append(rec("e", 0, 0, a, map[string]float64{"t": math.NaN()})); err == nil {
		t.Error("NaN response should be rejected")
	}
	if err := j.Append(rec("e", 0, 0, a, map[string]float64{"t": math.Inf(1)})); err == nil {
		t.Error("Inf response should be rejected")
	}
	// Closed journal refuses appends but keeps its index readable.
	if err := j.Append(rec("e", 0, 0, a, map[string]float64{"t": 1})); err != nil {
		t.Fatal(err)
	}
	j.Close()
	if err := j.Append(rec("e", 0, 1, a, map[string]float64{"t": 2})); err == nil {
		t.Error("append after Close should fail")
	}
	if j.Len() != 1 {
		t.Errorf("index should survive Close, Len = %d", j.Len())
	}
}

func TestOpenDirAndSanitize(t *testing.T) {
	dir := t.TempDir()
	j, err := OpenDir(dir, "workstation 2^2 (memory/cache)")
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	base := filepath.Base(j.Path())
	if strings.ContainsAny(base, " /^()") {
		t.Errorf("unsanitized journal file name %q", base)
	}
	if !strings.HasSuffix(base, ".jsonl") {
		t.Errorf("journal file %q should end in .jsonl", base)
	}
	if _, err := OpenDir(dir, ""); err == nil {
		t.Error("empty experiment name should be rejected")
	}
}

func TestLoadRecordsMissingFile(t *testing.T) {
	if _, err := LoadRecords(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Error("LoadRecords on a missing file should error, not create it")
	}
}

// TestLoadRecordsReadOnly covers diff-style loading of journals the
// process may not write: a read-only file with a torn tail must load
// without being repaired or otherwise modified.
func TestLoadRecordsReadOnly(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	content := `{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{},"responses":{"t":1}}` + "\n" +
		`{"experiment":"e","row":0,"repl` // torn tail, no newline
	if err := os.WriteFile(path, []byte(content), 0o444); err != nil {
		t.Fatal(err)
	}
	recs, err := LoadRecords(path)
	if err != nil {
		t.Fatalf("read-only journal should load: %v", err)
	}
	if len(recs) != 1 || recs[0].Responses["t"] != 1 {
		t.Errorf("records = %+v", recs)
	}
	after, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(after) != content {
		t.Error("LoadRecords modified the journal file")
	}
}

func TestJournalLastRecordWins(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a := map[string]string{"f": "lo"}
	if err := j.Append(rec("e", 0, 0, a, map[string]float64{"t": 1})); err != nil {
		t.Fatal(err)
	}
	if err := j.Append(rec("e", 0, 0, a, map[string]float64{"t": 2})); err != nil {
		t.Fatal(err)
	}
	if j.Len() != 1 {
		t.Errorf("duplicate keys should collapse, Len = %d", j.Len())
	}
	got, _ := j.Lookup("e", AssignmentHash(a), 0)
	if got.Responses["t"] != 2 {
		t.Errorf("last record should win, got %v", got.Responses["t"])
	}
	j.Close()
}

// TestJournalAppendBatch pins the group-commit primitive: a batch lands
// byte-identical to the same records appended one at a time, survives
// reopen, and a rejected batch writes nothing.
func TestJournalAppendBatch(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		rec("e", 0, 0, map[string]string{"c": "a"}, map[string]float64{"t": 1}),
		rec("e", 1, 0, map[string]string{"c": "b"}, map[string]float64{"t": 2}),
		rec("e", 0, 1, map[string]string{"c": "a"}, map[string]float64{"t": 3}),
	}

	one := filepath.Join(dir, "one.jsonl")
	j1, err := Open(one)
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range recs {
		if err := j1.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	j1.Close()

	batch := filepath.Join(dir, "batch.jsonl")
	j2, err := Open(batch)
	if err != nil {
		t.Fatal(err)
	}
	if err := j2.AppendBatch(nil); err != nil {
		t.Fatalf("empty batch: %v", err)
	}
	if err := j2.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	if j2.Len() != 3 {
		t.Fatalf("Len = %d, want 3", j2.Len())
	}
	j2.Close()

	a, err := os.ReadFile(one)
	if err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	if string(a) != string(b) {
		t.Errorf("AppendBatch bytes differ from per-record Append:\nbatch:\n%s\nappend:\n%s", b, a)
	}

	// Durability: reopen serves the batch.
	r, err := Open(batch)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	for _, want := range recs {
		if _, ok := r.Lookup(want.Experiment, want.Hash, want.Replicate); !ok {
			t.Errorf("reopen lost %s", want.Key())
		}
	}

	// A batch with any invalid record writes nothing at all.
	bad := []Record{
		rec("e", 5, 0, map[string]string{"c": "z"}, map[string]float64{"t": 9}),
		{Experiment: "", Replicate: 0},
	}
	before := r.Len()
	if err := r.AppendBatch(bad); err == nil {
		t.Fatal("batch with an invalid record succeeded")
	}
	if r.Len() != before {
		t.Fatalf("rejected batch changed Len: %d -> %d", before, r.Len())
	}
	data, err := os.ReadFile(batch)
	if err != nil {
		t.Fatal(err)
	}
	if string(data) != string(b) {
		t.Error("rejected batch left bytes behind")
	}
}

// TestJournalAppendBatchClosed pins the closed-journal contract for the
// batch path.
func TestJournalAppendBatchClosed(t *testing.T) {
	j, err := Open(filepath.Join(t.TempDir(), "j.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	j.Close()
	err = j.AppendBatch([]Record{rec("e", 0, 0, map[string]string{"c": "a"}, map[string]float64{"t": 1})})
	if err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("AppendBatch after Close = %v, want a closed-journal error", err)
	}
}

// TestCommitBatch: a batch encoded once holds, in either framing, the
// bytes of its records appended one by one — which are also a wire
// stream's — and a journal commits them as AppendBatch would; a journal
// of the other codec refuses the batch before it writes a byte.
func TestCommitBatch(t *testing.T) {
	recs := []Record{
		{Experiment: "e", Row: 0, Replicate: 0, Assignment: map[string]string{"f": "a"}, Responses: map[string]float64{"ms": 1.5}},
		{Experiment: "e", Row: 1, Replicate: 0, Assignment: map[string]string{"f": "b"}, Responses: map[string]float64{"ms": 2}},
		{Experiment: "e", Row: 1, Replicate: 1, Assignment: map[string]string{"f": "b"}, Responses: map[string]float64{"ms": 3}},
	}
	for _, tc := range []struct {
		name      string
		encode    func([]Record) (*EncodedBatch, error)
		wire      func(io.Writer, Record) error
		wireType  string
		open      func(string) (*Journal, error)
		otherOpen func(string) (*Journal, error)
	}{
		{"json", EncodeBatch, EncodeWire, WireJSONType, Open, OpenBinary},
		{"binary", EncodeBatchBinary, EncodeWireBinary, WireBinaryType, OpenBinary, Open},
	} {
		t.Run(tc.name, func(t *testing.T) {
			b, err := tc.encode(recs)
			if err != nil {
				t.Fatal(err)
			}
			var wire bytes.Buffer
			for _, rec := range recs {
				if err := tc.wire(&wire, rec); err != nil {
					t.Fatal(err)
				}
			}
			if !bytes.Equal(b.Bytes(), wire.Bytes()) || b.Len() != len(recs) || b.WireType() != tc.wireType {
				t.Fatalf("batch of %d, %s:\n%q\nwant %d, %s:\n%q", b.Len(), b.WireType(), b.Bytes(), len(recs), tc.wireType, wire.Bytes())
			}
			for i, rec := range b.Records() {
				if rec.Hash != AssignmentHash(recs[i].Assignment) {
					t.Errorf("record %d of the batch is not normalized: hash %q", i, rec.Hash)
				}
			}

			dir := t.TempDir()
			committed, err := tc.open(filepath.Join(dir, "committed"))
			if err != nil {
				t.Fatal(err)
			}
			if err := committed.CommitBatch(b); err != nil {
				t.Fatal(err)
			}
			appended, err := tc.open(filepath.Join(dir, "appended"))
			if err != nil {
				t.Fatal(err)
			}
			if err := appended.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
			for _, j := range []*Journal{committed, appended} {
				if j.Len() != len(recs) {
					t.Errorf("%s indexes %d record(s), want %d", j.Path(), j.Len(), len(recs))
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			got, _ := os.ReadFile(committed.Path())
			want, _ := os.ReadFile(appended.Path())
			if !bytes.Equal(got, want) || !bytes.HasSuffix(got, b.Bytes()) {
				t.Errorf("CommitBatch wrote\n%q\nAppendBatch wrote\n%q", got, want)
			}

			other, err := tc.otherOpen(filepath.Join(dir, "other"))
			if err != nil {
				t.Fatal(err)
			}
			defer other.Close()
			before, _ := os.ReadFile(other.Path())
			if err := other.CommitBatch(b); err == nil || !strings.Contains(err.Error(), "cannot be committed") {
				t.Errorf("CommitBatch of a %s batch to the other codec's journal = %v, want a refusal", tc.name, err)
			}
			after, _ := os.ReadFile(other.Path())
			if !bytes.Equal(before, after) || other.Len() != 0 {
				t.Errorf("the refused batch left %d byte(s) and %d record(s) behind", len(after)-len(before), other.Len())
			}
		})
	}

	bad := append([]Record{}, recs...)
	bad[2].Responses = map[string]float64{"ms": math.NaN()}
	if b, err := EncodeBatch(bad); err == nil {
		t.Errorf("EncodeBatch accepted a non-finite response: %q", b.Bytes())
	}
}
