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

// binaryImage is a binary record file holding recs frame by frame, in
// order and superseded ones included: the magic, then the frames
// EncodeBatchBinary makes for them. Merge writes a .binj only compact and
// in canonical order; a test that needs a superseded or an out-of-order
// frame builds the file from this.
func binaryImage(t testing.TB, recs []Record) []byte {
	t.Helper()
	b, err := binaryCodec.encodeBatch([]byte(BinaryMagic), recs)
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// writeBinary writes binaryImage(recs) to path.
func writeBinary(t testing.TB, path string, recs []Record) {
	t.Helper()
	if err := os.WriteFile(path, binaryImage(t, recs), 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestBinaryJournalReopen: a binary record file reads back byte-exactly.
// Merge writes the codec's edge cases from a JSONL journal into a .binj;
// ScanFile and Inspect serve them unchanged, and the file holds exactly
// the frames today's binary encoder makes for the records in Merge's
// canonical order.
func TestBinaryJournalReopen(t *testing.T) {
	dir := t.TempDir()
	j, err := Open(filepath.Join(dir, "run.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch(codecCases()); err != nil {
		t.Fatal(err)
	}
	j.Close()
	path := filepath.Join(dir, "run.binj")
	if _, err := Merge([]string{j.Path()}, path); err != nil {
		t.Fatal(err)
	}
	info, err := Inspect(path)
	if err != nil || info.Torn || info.Records != len(codecCases()) || info.Distinct != len(codecCases()) {
		t.Fatalf("Inspect = %+v, %v", info, err)
	}
	got, err := Collect(ScanFile(path))
	if err != nil {
		t.Fatal(err)
	}
	want := codecCases()
	byKey := make(map[string]Record, len(want))
	for _, rec := range want {
		byKey[rec.Key()] = rec
	}
	if len(got) != len(want) {
		t.Fatalf("ScanFile served %d record(s), want %d", len(got), len(want))
	}
	for _, rec := range got {
		if w := byKey[rec.Key()]; !reflect.DeepEqual(rec, w) {
			t.Errorf("read back mismatch:\n got %#v\nwant %#v", rec, w)
		}
		if rec.Key() == want[2].Key() && !math.Signbit(rec.Responses["negzero"]) {
			t.Errorf("-0 not preserved: %+v", rec.Responses)
		}
	}
	if data, _ := os.ReadFile(path); !bytes.Equal(data, binaryImage(t, got)) {
		t.Error("Merge's .binj is not the binary encoder's frames for its records")
	}
}

// TestBinaryJournalTornTail simulates crashes at every byte boundary of a
// binary record file's last frame: every reader — ScanFile, Inspect, and
// Merge reading it as a source — keeps the two complete records and
// reports the torn tail, and none of them touches the file. The archive,
// the writable binary store, holds its recovery to the same rule
// (archivestore's TestCutAtEveryByte and TestTornRecordReappends).
func TestBinaryJournalTornTail(t *testing.T) {
	dir := t.TempDir()
	recs := []Record{
		{Experiment: "e", Row: 0, Replicate: 0, Assignment: map[string]string{"a": "1"}, Responses: map[string]float64{"ms": 1}},
		{Experiment: "e", Row: 1, Replicate: 0, Assignment: map[string]string{"a": "2"}, Responses: map[string]float64{"ms": 2}},
		{Experiment: "e", Row: 2, Replicate: 0, Assignment: map[string]string{"a": "3"}, Responses: map[string]float64{"ms": 3}},
	}
	for i := range recs {
		recs[i].Hash = AssignmentHash(recs[i].Assignment)
	}
	full := binaryImage(t, recs)
	clean := binaryImage(t, recs[:2])
	path := filepath.Join(dir, "torn.binj")
	for cut := len(clean) + 1; cut < len(full); cut++ {
		if err := os.WriteFile(path, full[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		if got, err := Collect(ScanFile(path)); err != nil || !reflect.DeepEqual(got, recs[:2]) {
			t.Errorf("cut at %d: ScanFile = %+v, %v; want the two complete records", cut, got, err)
		}
		if info, err := Inspect(path); err != nil || !info.Torn || info.Records != 2 {
			t.Errorf("cut at %d: Inspect = %+v, %v; want two records and a torn tail", cut, info, err)
		}
		merged := filepath.Join(dir, "merged.binj")
		if _, err := Merge([]string{path}, merged); err != nil {
			t.Fatalf("cut at %d: Merge: %v", cut, err)
		}
		if got, _ := os.ReadFile(merged); !bytes.Equal(got, clean) {
			t.Errorf("cut at %d: Merge wrote %d byte(s), want the %d of the complete records", cut, len(got), len(clean))
		}
		if got, _ := os.ReadFile(path); !bytes.Equal(got, full[:cut]) {
			t.Fatalf("cut at %d: a reader modified the torn file", cut)
		}
	}
}

// TestBinaryJournalZeroFilledTail: zero bytes after the last frame — what
// a file the filesystem had extended reads back as when a crash kept the
// data from being written — are a torn tail, not an empty frame that
// fails to decode: LoadRecords and Inspect read the record before them,
// and Compact writes the file without them. archivestore's
// TestZeroFilledTailIsTorn holds the archive's recovery to the same rule.
func TestBinaryJournalZeroFilledTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.binj")
	clean := binaryImage(t, []Record{{Experiment: "e", Assignment: map[string]string{"a": "1"}, Responses: map[string]float64{"ms": 1}}})
	if err := os.WriteFile(path, append(bytes.Clone(clean), make([]byte, 4096)...), 0o644); err != nil {
		t.Fatal(err)
	}
	if recs, err := LoadRecords(path); err != nil || len(recs) != 1 {
		t.Fatalf("LoadRecords = %d record(s), %v; want the one before the zeros", len(recs), err)
	}
	if info, err := Inspect(path); err != nil || !info.Torn || info.Records != 1 {
		t.Errorf("Inspect = %+v, %v; want one record and a torn tail", info, err)
	}
	if _, err := Compact(path, ""); err != nil {
		t.Fatal(err)
	}
	if got, _ := os.ReadFile(path); !bytes.Equal(got, clean) {
		t.Errorf("Compact left %d byte(s), want the %d before the zeros", len(got), len(clean))
	}
}

// TestBinaryJournalRejectsForeignFile checks that a JSONL journal does not
// read as a binary record file because of its name: the readers sniff the
// content, so a .binj holding JSON lines reads as the journal it is, and
// a .binj whose frames follow a broken magic is not read as binary frames.
func TestBinaryJournalRejectsForeignFile(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.binj")
	line := `{"experiment":"e","replicate":0,"hash":"h"}`
	if err := os.WriteFile(path, []byte(line+"\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadRecords(path); err != nil || len(got) != 1 || got[0].Hash != "h" {
		t.Fatalf("LoadRecords of JSON lines named .binj = %+v, %v", got, err)
	}
	if info, err := Inspect(path); err != nil || info.Detail == binaryCodec.detail {
		t.Errorf("Inspect of JSON lines named .binj = %+v, %v; want the journal's shape", info, err)
	}
	image := binaryImage(t, codecCases())
	image[0] ^= 0xff
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	if got, err := LoadRecords(path); err == nil && len(got) > 0 {
		t.Errorf("LoadRecords read %d record(s) out of frames behind a broken magic", len(got))
	}
}

// TestBinaryFormatSeams drives a binary record file through every
// registry seam: ScanFile, Inspect, Merge to and from .binj, Compact in
// place, and the binary → JSON → binary convert round trip, which must
// be record-identical.
func TestBinaryFormatSeams(t *testing.T) {
	dir := t.TempDir()
	bin := filepath.Join(dir, "run.binj")
	cases := codecCases()
	// Supersede one key so merge/compact have work to do.
	dup := cases[2]
	dup.Responses = map[string]float64{"ms": 9.5}
	writeBinary(t, bin, append(cases[:len(cases):len(cases)], dup))

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
