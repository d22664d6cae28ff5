package archivestore

import (
	"bytes"
	"compress/flate"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// block is one block of an archive file's data region.
type block struct {
	off     int64
	typ     byte
	payload []byte
}

// blocksOf lists the blocks of data from the header on, up to the first
// bytes that are not a complete block.
func blocksOf(data []byte) []block {
	var out []block
	for off := int64(headerSize); ; {
		typ, payload, ok := parseBlock(data, off)
		if !ok {
			return out
		}
		out = append(out, block{off, typ, payload})
		off += int64(blockHeaderSize + len(payload))
	}
}

// legacyPayloadZ builds what the pre-version-2 compact writer put in a
// type-4 block: key fields, the JSON document's length, and the document
// DEFLATE-compressed. Nothing writes the type any more; tests build
// legacy input of shapes the golden files do not have with it.
func legacyPayloadZ(t testing.TB, rec runstore.Record) []byte {
	t.Helper()
	doc, err := runstore.AppendJSON(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	payload := binary.LittleEndian.AppendUint32(appendKeyFields(nil, rec.Experiment, rec.Hash, rec.Replicate), uint32(len(doc)))
	buf := bytes.NewBuffer(payload)
	zw, err := flate.NewWriter(buf, flate.BestSpeed)
	if err == nil {
		_, err = zw.Write(doc)
	}
	if err == nil {
		err = zw.Close()
	}
	if err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// TestCompressedPayloadRoundTrip: the legacy compressed blocks of the
// golden .archz decode to the records they were written from, their keys
// come out without inflating anything, and no strict prefix of one
// decodes.
func TestCompressedPayloadRoundTrip(t *testing.T) {
	_, data := copyGolden(t, "archive.v1.archz")
	var records []block
	for _, b := range blocksOf(data) {
		if b.typ == blockRecordZ {
			records = append(records, b)
		}
	}
	want := goldenFrames()
	if len(records) != len(want) {
		t.Fatalf("golden .archz holds %d compressed block(s), want %d", len(records), len(want))
	}
	for i, b := range records {
		got, err := decodeRecordBlock(blockRecordZ, b.payload)
		if err != nil || !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("block %d decodes to %+v, %v; want %+v", i, got, err, want[i])
		}
		exp, hash, rep, err := recordPayloadKey(blockRecordZ, b.payload)
		if err != nil || exp != want[i].Experiment || hash != want[i].Hash || rep != want[i].Replicate {
			t.Fatalf("recordPayloadKey = (%q, %q, %d), %v; want %s", exp, hash, rep, err, want[i].Key())
		}
		for cut := 0; cut < len(b.payload); cut++ {
			if _, err := decodeRecordBlock(blockRecordZ, b.payload[:cut]); err == nil {
				t.Fatalf("block %d: decode of a %d-byte prefix (of %d) succeeded", i, cut, len(b.payload))
			}
		}
	}
}

// TestBinaryPayloadRoundTrip: a binary record block decodes to the record
// it was written from; its key is the payload's first three fields, which
// recovery reads without the rest; a prefix cut inside the key has no key
// (a recovery scan stops there, as at a type-1 block whose key fields are
// cut), one cut after it has a key but no record (indexed, then corrupt at
// read, as a type-1 block with a cut document); and so has a payload
// without a hash.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	r := rec("exp-ü", 3, 7, -0.0)
	r.Hash = hashOf(r)
	r.Assignment["quote\"d"] = " "
	typ, payload, err := appendRecordPayload(nil, 2, r)
	if err != nil || typ != blockRecordB {
		t.Fatalf("appendRecordPayload = type %d, %v", typ, err)
	}
	if !bytes.Equal(payload, runstore.AppendBinary(nil, r)) {
		t.Fatal("a binary record block's payload is not the binary codec's")
	}
	if got, err := decodeRecordBlock(blockRecordB, payload); err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, r)
	}
	exp, hash, rep, err := recordPayloadKey(blockRecordB, payload)
	if err != nil || exp != r.Experiment || hash != r.Hash || rep != r.Replicate {
		t.Fatalf("recordPayloadKey = (%q, %q, %d), %v; want %s", exp, hash, rep, err, r.Key())
	}
	keyLen := 1 + len(r.Experiment) + 1 + len(r.Hash) + 1
	for cut := 0; cut < len(payload); cut++ {
		_, _, _, kerr := recordPayloadKey(blockRecordB, payload[:cut])
		if (kerr == nil) != (cut >= keyLen) {
			t.Fatalf("key of a %d-byte prefix: %v (the key is %d bytes)", cut, kerr, keyLen)
		}
		if _, err := decodeRecordBlock(blockRecordB, payload[:cut]); err == nil {
			t.Fatalf("decode of a %d-byte prefix (of %d) succeeded", cut, len(payload))
		}
	}
	hashless := r
	hashless.Hash = ""
	if _, _, _, err := recordPayloadKey(blockRecordB, runstore.AppendBinary(nil, hashless)); err == nil {
		t.Fatal("a binary record block without a hash has a key")
	}
}

// TestCompressedAppendMixedAndReopen reads the golden archive whose blocks
// alternate plain and compressed — written by the live Archive of a build
// that could still switch encodings mid-stream — through every read path:
// the finalized open, appends on top of it, a reopen, and the
// crash-recovery scan.
func TestCompressedAppendMixedAndReopen(t *testing.T) {
	path, _ := copyGolden(t, "archive.v1.mixed.arch")
	if info, err := Inspect(path); err != nil || !strings.Contains(info.Detail, "(2 compressed)") {
		t.Fatalf("Inspect = %+v, %v; want two compressed blocks counted", info, err)
	}
	want := goldenServed()
	check := func(s runstore.Store, stage string) {
		t.Helper()
		for _, w := range want {
			got, ok := s.Lookup(w.Experiment, w.Hash, w.Replicate)
			if !ok || !reflect.DeepEqual(got, w) {
				t.Fatalf("%s: Lookup(%s) = %+v, %v; want %+v", stage, w.Key(), got, ok, w)
			}
		}
		if got, err := runstore.Collect(s.Scan()); err != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: Scan = %+v, %v; want %+v", stage, got, err, want)
		}
	}
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	check(a, "finalized open")
	more := rec("golden", 5, 0, 5)
	if err := a.Append(more); err != nil {
		t.Fatal(err)
	}
	more.Hash = hashOf(more)
	want = append(want, more)
	check(a, "live")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if head, _ := os.ReadFile(path); string(head[:headerSize]) != Magic || string(head[len(head)-4:]) != TrailerMagic {
		t.Fatal("appending to a version-1 archive changed its version")
	}
	if a, err = Open(path); err != nil {
		t.Fatal(err)
	}
	check(a, "reopen")
	a.Close()
	tearArchive(t, path)
	if a, err = Open(path); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Torn() {
		t.Fatal("recovery from a torn tail did not report it")
	}
	check(a, "recovery")
}

// TestCompressedTornTailRecovery cuts the last record block of a compact
// archive — the golden legacy one (type 4) and one written today (type 5)
// — at every byte boundary: recovery truncates to the last complete
// block, the streaming walk drops the same tail, and neither depends on
// the block's encoding.
func TestCompressedTornTailRecovery(t *testing.T) {
	today := filepath.Join(t.TempDir(), "today.archz")
	if err := WriteCompressed(today, runstore.Seq(goldenWritten()), ""); err != nil {
		t.Fatal(err)
	}
	legacy, _ := copyGolden(t, "archive.v1.archz")
	for _, src := range []string{legacy, today} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		blocks := blocksOf(data)
		last := blocks[3] // the fourth record; the index page and footer follow
		if !isRecordBlock(last.typ) || last.typ == blockRecord {
			t.Fatalf("%s: block 3 has type %d", src, last.typ)
		}
		end := last.off + int64(blockHeaderSize+len(last.payload))
		want := goldenFrames()[:3] // the fourth, cut, superseded the first
		for cut := last.off + 1; cut < end; cut++ {
			torn := filepath.Join(t.TempDir(), "torn.archz")
			if err := os.WriteFile(torn, data[:cut], 0o644); err != nil {
				t.Fatal(err)
			}
			if got, err := runstore.Collect(runstore.ScanFile(torn)); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cut at %d: ScanFile = %+v, %v", src, cut, got, err)
			}
			a, err := Open(torn)
			if err != nil {
				t.Fatalf("%s cut at %d: %v", src, cut, err)
			}
			got, err := runstore.Collect(a.Scan())
			if !a.Torn() || err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("%s cut at %d: torn %v, Scan = %+v, %v; want %+v", src, cut, a.Torn(), got, err, want)
			}
			a.Close()
		}
	}
}

// TestMergeArchzDispatch checks the registered .archz destination
// format: a merge into foo.archz writes a version-2 archive of binary
// record blocks, the result reads back record-identical to the plain
// archive merge of the same sources, and it round-trips through a JSONL
// journal losslessly.
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
	if !strings.HasPrefix(info.Detail, "archive v2: 50 record block(s) (50 binary)") {
		t.Fatalf(".archz Inspect detail %q: not a version-2 archive of binary blocks", info.Detail)
	}
	if st, pst := fileSize(t, packed), fileSize(t, plain); st >= pst {
		t.Fatalf(".archz is %d bytes, the plain archive %d", st, pst)
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
	// Round trip back out through a journal: the binary archive is a
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

func fileSize(t *testing.T, path string) int64 {
	t.Helper()
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return st.Size()
}
