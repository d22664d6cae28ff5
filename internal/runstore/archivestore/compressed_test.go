package archivestore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// TestCompressedPayloadRoundTrip exercises the compressed record codec
// directly: encode/decode identity, key extraction without inflation,
// and rejection of truncated payloads.
func TestCompressedPayloadRoundTrip(t *testing.T) {
	r := rec("exp-z", 3, 1, 42.5)
	r.Hash = hashOf(r)
	payload, err := encodeRecordPayloadZ(r)
	if err != nil {
		t.Fatal(err)
	}
	got, err := decodeRecordBlock(blockRecordZ, payload)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip = %+v, want %+v", got, r)
	}
	// recordPayloadKey must work on the compressed payload unchanged —
	// recovery scans index compressed blocks without inflating them.
	exp, hash, rep, err := recordPayloadKey(payload)
	if err != nil {
		t.Fatal(err)
	}
	if exp != r.Experiment || hash != r.Hash || rep != r.Replicate {
		t.Fatalf("recordPayloadKey = (%q, %q, %d), want (%q, %q, %d)", exp, hash, rep, r.Experiment, r.Hash, r.Replicate)
	}
	// Every strict prefix must fail to decode, never panic or succeed.
	for cut := 0; cut < len(payload); cut++ {
		if _, err := decodeRecordBlock(blockRecordZ, payload[:cut]); err == nil {
			t.Fatalf("decode of %d-byte prefix (of %d) succeeded", cut, len(payload))
		}
	}
}

// TestCompressedAppendMixedAndReopen flips SetCompress mid-stream so one
// archive holds both block encodings, then checks every read path — live
// lookups, a finalized reopen, and the crash-recovery scan — sees the
// same records.
func TestCompressedAppendMixedAndReopen(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.arch")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	var want []runstore.Record
	for row := 0; row < 6; row++ {
		a.SetCompress(row >= 3) // first half plain, second half compressed
		r := rec("e", row, 0, float64(row))
		if err := a.Append(r); err != nil {
			t.Fatal(err)
		}
		r.Hash = hashOf(r)
		want = append(want, r)
	}
	check := func(s runstore.Store, stage string) {
		t.Helper()
		for _, w := range want {
			got, ok := s.Lookup(w.Experiment, w.Hash, w.Replicate)
			if !ok {
				t.Fatalf("%s: Lookup(%s) missed", stage, w.Key())
			}
			if !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: Lookup(%s) = %+v, want %+v", stage, w.Key(), got, w)
			}
		}
	}
	check(a, "live")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	// Finalized reopen: the index loads from the footer; point reads must
	// dispatch per block type.
	a2, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check(a2, "finalized reopen")
	if a2.Torn() {
		t.Fatal("finalized reopen reported torn")
	}
	a2.Close()

	// The streaming reader over the mixed file: all records, compressed
	// count surfaced in the Detail.
	info, err := Inspect(path)
	if err != nil {
		t.Fatal(err)
	}
	if info.Records != len(want) || info.Distinct != len(want) {
		t.Fatalf("Inspect = %+v, want %d records", info, len(want))
	}
	if !strings.Contains(info.Detail, "(3 compressed)") {
		t.Fatalf("Inspect detail %q does not count compressed blocks", info.Detail)
	}
}

// TestCompressedTornTailRecovery cuts a compressed block at every byte
// boundary and checks recovery truncates to the last complete block —
// the journal's torn-tail rule, compression changing nothing.
func TestCompressedTornTailRecovery(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.arch")
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a.SetCompress(true)
	if err := a.Append(rec("e", 0, 0, 1)); err != nil {
		t.Fatal(err)
	}
	keep := a.dataEnd
	if err := a.Append(rec("e", 1, 0, 2)); err != nil {
		t.Fatal(err)
	}
	end := a.dataEnd
	a.Close()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	data = data[:end] // data blocks only, no footer or trailer
	for cut := keep + 1; cut < end; cut++ {
		tornPath := filepath.Join(dir, "torn.arch")
		if err := os.WriteFile(tornPath, data[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		ta, err := Open(tornPath)
		if err != nil {
			t.Fatalf("cut %d: %v", cut, err)
		}
		if !ta.Torn() {
			t.Fatalf("cut %d: not reported torn", cut)
		}
		if ta.Len() != 1 {
			t.Fatalf("cut %d: Len = %d, want 1 (the complete block)", cut, ta.Len())
		}
		ta.Close()
	}
}

// TestMergeArchzDispatch checks the registered .archz destination
// format: a merge into foo.archz writes compressed record blocks, the
// result reads back record-identical to the plain-archive merge of the
// same sources, and it round-trips through a JSONL journal losslessly.
func TestMergeArchzDispatch(t *testing.T) {
	dir := t.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	j, err := runstore.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 50; row++ {
		if err := j.Append(rec("e", row, 0, float64(row))); err != nil {
			t.Fatal(err)
		}
	}
	j.Close()

	plain := filepath.Join(dir, "out.arch")
	packed := filepath.Join(dir, "out.archz")
	if _, err := runstore.Merge([]string{src}, plain); err != nil {
		t.Fatal(err)
	}
	if _, err := runstore.Merge([]string{src}, packed); err != nil {
		t.Fatal(err)
	}
	info, err := runstore.Inspect(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(info.Detail, "(50 compressed)") {
		t.Fatalf(".archz Inspect detail %q: blocks not compressed", info.Detail)
	}
	want, err := runstore.LoadRecords(plain)
	if err != nil {
		t.Fatal(err)
	}
	got, err := runstore.LoadRecords(packed)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf(".archz merge records differ from .arch merge")
	}
	// Round trip back out through a journal: the compressed archive is a
	// lossless format conversion, same as the plain one.
	back := filepath.Join(dir, "back.jsonl")
	if _, err := runstore.Merge([]string{packed}, back); err != nil {
		t.Fatal(err)
	}
	round, err := runstore.LoadRecords(back)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(round, want) {
		t.Fatalf("archz -> jsonl round trip records differ")
	}
}
