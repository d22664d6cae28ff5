package runstore

import (
	"bytes"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// codecCases are records exercising the payload encoding's edges: nil
// vs empty maps, empty strings, negative rows, zero/negative/-0/huge
// response values, multi-byte runes.
func codecCases() []Record {
	return []Record{
		{Experiment: "e", Row: 0, Replicate: 0, Hash: AssignmentHash(nil)},
		{Experiment: "e", Row: -3, Replicate: 7, Hash: "h",
			Assignment: map[string]string{}, Responses: map[string]float64{}},
		{Experiment: "exp — µ", Row: 12, Replicate: 1, Hash: "0123456789abcdef",
			Assignment: map[string]string{"a": "1", "b": "", "": "x"},
			Responses:  map[string]float64{"ms": 1.5, "neg": -2.25, "zero": 0, "negzero": math.Copysign(0, -1), "big": 1e300}},
		{Experiment: "e", Row: 1 << 30, Replicate: 1 << 20, Hash: "h2",
			Assignment: map[string]string{"k": "v"},
			Responses:  map[string]float64{"tiny": 5e-324}},
	}
}

// TestBinaryRecordRoundTrip checks encode/decode identity — including
// the nil-vs-empty map distinction and -0 — and encoding determinism.
func TestBinaryRecordRoundTrip(t *testing.T) {
	for _, want := range codecCases() {
		payload := AppendBinary(nil, want)
		got, err := decodeBinaryRecord(payload)
		if err != nil {
			t.Fatalf("decode %+v: %v", want, err)
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("round trip mismatch:\n got %#v\nwant %#v", got, want)
		}
		if math.Signbit(want.Responses["negzero"]) != math.Signbit(got.Responses["negzero"]) {
			t.Errorf("-0 not preserved: %+v", got.Responses)
		}
		again := AppendBinary(nil, want)
		if string(again) != string(payload) {
			t.Errorf("encoding not deterministic for %+v", want)
		}
	}
}

// TestBinaryRecordDecodeRejects checks that truncations and mutations
// of a valid payload fail cleanly rather than yielding a wrong record.
func TestBinaryRecordDecodeRejects(t *testing.T) {
	rec := codecCases()[2]
	payload := AppendBinary(nil, rec)
	for n := 0; n < len(payload); n++ {
		if _, err := decodeBinaryRecord(payload[:n]); err == nil {
			// A truncation may still decode if it lands exactly after a
			// complete record — impossible here since every prefix is a
			// strict cut of required fields.
			t.Errorf("decode of %d-byte truncation succeeded", n)
		}
	}
	if _, err := decodeBinaryRecord(append(payload[:len(payload):len(payload)], 0)); err == nil {
		t.Error("decode with trailing byte succeeded")
	}
}

// TestBinaryJournalReopen appends through the store, reopens, and
// checks the indexed view and replicate counts survive byte-exactly.
func TestBinaryJournalReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.binj")
	j, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range codecCases() {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	j2, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if j2.Torn() {
		t.Error("clean reopen reported torn")
	}
	if j2.Len() != len(codecCases()) {
		t.Fatalf("reopened Len = %d, want %d", j2.Len(), len(codecCases()))
	}
	for _, want := range codecCases() {
		got, ok := j2.Lookup(want.Experiment, want.Hash, want.Replicate)
		if !ok {
			t.Fatalf("lookup %s missing after reopen", want.Key())
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("reopen mismatch:\n got %#v\nwant %#v", got, want)
		}
	}
}

// TestBinaryJournalTornTail simulates crashes at every byte boundary of
// a trailing append: the reopened journal must keep the two complete
// records, report Torn, and accept further appends.
func TestBinaryJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	base := filepath.Join(dir, "base.binj")
	j, err := OpenBinary(base)
	if err != nil {
		t.Fatal(err)
	}
	recs := []Record{
		{Experiment: "e", Row: 0, Replicate: 0, Assignment: map[string]string{"a": "1"}, Responses: map[string]float64{"ms": 1}},
		{Experiment: "e", Row: 1, Replicate: 0, Assignment: map[string]string{"a": "2"}, Responses: map[string]float64{"ms": 2}},
		{Experiment: "e", Row: 2, Replicate: 0, Assignment: map[string]string{"a": "3"}, Responses: map[string]float64{"ms": 3}},
	}
	for _, rec := range recs {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()
	full, err := os.ReadFile(base)
	if err != nil {
		t.Fatal(err)
	}
	// Find the third frame's start: scan two frames past the magic.
	r, err := OpenSource(base)
	if err != nil {
		t.Fatal(err)
	}
	var offs []int64
	for e, err := range r.Entries() {
		if err != nil {
			t.Fatal(err)
		}
		offs = append(offs, e.Ext.Off)
	}
	r.Close()
	if len(offs) != 3 {
		t.Fatalf("scanned %d entries, want 3", len(offs))
	}
	for cut := offs[2] + 1; cut < int64(len(full)); cut++ {
		path := filepath.Join(dir, "torn.binj")
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenBinary(path)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		if !j.Torn() {
			t.Errorf("cut at %d: torn not reported", cut)
		}
		if j.Len() != 2 {
			t.Errorf("cut at %d: kept %d records, want 2", cut, j.Len())
		}
		if err := j.Append(recs[2]); err != nil {
			t.Errorf("cut at %d: append after recovery: %v", cut, err)
		}
		j.Close()
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != string(full) {
			t.Errorf("cut at %d: re-appended journal differs from original", cut)
		}
	}
}

// TestBinaryJournalZeroFilledTail: zero bytes after the last frame — what
// a file the filesystem had extended reads back as when a crash kept the
// data from being written — are a torn tail, not an empty frame that
// fails to decode: LoadRecords reads the record before them, and
// OpenBinary truncates them away.
func TestBinaryJournalZeroFilledTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.binj")
	j, err := OpenBinary(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.Append(Record{Experiment: "e", Assignment: map[string]string{"a": "1"}, Responses: map[string]float64{"ms": 1}}); err != nil {
		t.Fatal(err)
	}
	j.Close()
	clean, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, append(clean, make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := LoadRecords(path); err != nil || len(recs) != 1 {
		t.Fatalf("LoadRecords = %d record(s), %v; want the one before the zeros", len(recs), err)
	}
	if j, err = OpenBinary(path); err != nil {
		t.Fatal(err)
	}
	if !j.Torn() || j.Len() != 1 {
		t.Errorf("OpenBinary: torn %v, %d record(s); want torn, 1", j.Torn(), j.Len())
	}
	j.Close()
	if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
		t.Errorf("OpenBinary left %d byte(s), want the %d before the zeros", len(got), len(clean))
	}
}

// TestBinaryJournalRejectsForeignFile checks that a JSONL journal (or
// arbitrary bytes) does not open as a binary journal.
func TestBinaryJournalRejectsForeignFile(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.binj")
	if err := os.WriteFile(path, []byte(`{"experiment":"e","replicate":0}`+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := OpenBinary(path); err == nil {
		t.Fatal("OpenBinary accepted a JSONL file")
	}
}

// TestBinaryFormatSeams drives the binary journal through every
// registry seam: ScanFile, Inspect, Merge to and from .binj, Compact in
// place, and the binary → JSON → binary convert round trip, which must
// be record-identical.
func TestBinaryFormatSeams(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "run.binj")
	j, err := OpenBinary(bin)
	if err != nil {
		t.Fatal(err)
	}
	cases := codecCases()
	for _, rec := range cases {
		if err := j.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	// Supersede one key so merge/compact have work to do.
	dup := cases[2]
	dup.Responses = map[string]float64{"ms": 9.5}
	if err := j.Append(dup); err != nil {
		t.Fatal(err)
	}
	j.Close()

	want, err := LoadRecords(bin)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != len(cases) {
		t.Fatalf("LoadRecords kept %d, want %d", len(want), len(cases))
	}

	info, err := Inspect(bin)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(cases)+1 || info.Distinct != len(cases) || info.Torn {
		t.Fatalf("Inspect = %+v", info)
	}

	// binary → JSON → binary: records must survive both hops unchanged.
	jsonl := filepath.Join(dir, "run.jsonl")
	if _, err := Merge([]string{bin}, jsonl); err != nil {
		t.Fatal(err)
	}
	back := filepath.Join(dir, "back.binj")
	if _, err := Merge([]string{jsonl}, back); err != nil {
		t.Fatal(err)
	}
	got, err := LoadRecords(back)
	if err != nil {
		t.Fatal(err)
	}
	// Merge writes canonical order; LoadRecords yields first-appended
	// order for the original file — compare as key-addressed sets.
	byKey := func(recs []Record) map[string]Record {
		m := make(map[string]Record, len(recs))
		for _, r := range recs {
			m[r.Key()] = r
		}
		return m
	}
	if !reflect.DeepEqual(byKey(got), byKey(want)) {
		t.Errorf("binary→JSON→binary round trip altered records:\n got %#v\nwant %#v", byKey(got), byKey(want))
	}

	// Merging the same records into .binj twice is byte-identical
	// (deterministic encoding), and compacting a merged file is a no-op.
	again := filepath.Join(dir, "again.binj")
	if _, err := Merge([]string{jsonl}, again); err != nil {
		t.Fatal(err)
	}
	b1, _ := os.ReadFile(back)
	b2, _ := os.ReadFile(again)
	if string(b1) != string(b2) {
		t.Error("repeated merge to .binj not byte-identical")
	}
	if _, err := Compact(back, ""); err != nil {
		t.Fatal(err)
	}
	b3, _ := os.ReadFile(back)
	if string(b3) != string(b1) {
		t.Error("compacting a merged binary journal changed its bytes")
	}

	// Compact the original in place: superseded record drops, survivors
	// keep first-appended order and latest values.
	cs, err := Compact(bin, "")
	if err != nil {
		t.Fatal(err)
	}
	if cs.Kept != len(cases) || cs.Dropped != 1 {
		t.Fatalf("Compact = %+v", cs)
	}
	after, err := LoadRecords(bin)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(after, want) {
		t.Errorf("compacted binary journal view changed:\n got %#v\nwant %#v", after, want)
	}
}
