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

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// block is one block of an archive file's data region, frame or legacy
// block: its offset, type, payload and whole length.
type block struct {
	off     int64
	typ     byte
	payload []byte
	n       int64
}

// blocksOf lists the blocks of data, a file of any version, from the
// header on, up to the first bytes that are not a complete block.
func blocksOf(data []byte) []block {
	v := versionOf(data[:len(Magic)])
	header := framelog.FrameHeaderSize
	if v < latest {
		header = legacyBlockHeader // the type byte, then the frame header
	}
	var out []block
	for off := len(Magic); off+header <= len(data); {
		end := off + header + int(binary.LittleEndian.Uint32(data[off+header-framelog.FrameHeaderSize:]))
		if end > len(data) {
			break
		}
		typ, payload, ok := splitBlock(v, data[off:end])
		if !ok {
			break
		}
		out = append(out, block{int64(off), typ, payload, int64(end - off)})
		off = end
	}
	return out
}

// appendFrame appends one version-3 frame: type typ, then body.
func appendFrame(dst []byte, typ byte, body []byte) []byte {
	start := len(dst)
	return frames.Seal(append(append(frames.Reserve(dst), typ), body...), start)
}

// appendLegacyBlock appends one block of a version-1 or -2 file: the
// type byte, then the payload framed as a frame would be.
func appendLegacyBlock(dst []byte, typ byte, payload []byte) []byte {
	dst = append(dst, typ)
	start := len(dst)
	return frames.Seal(append(frames.Reserve(dst), payload...), start)
}

// legacyPayload builds what a version-1 writer put in a JSON record block
// of type typ: key fields, then the JSON document — for type 4 its length
// and the document DEFLATE-compressed. Nothing writes either type any
// more; tests build legacy input of shapes the golden files do not have
// with it.
func legacyPayload(t testing.TB, typ byte, rec runstore.Record) []byte {
	t.Helper()
	doc, err := runstore.AppendJSON(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	payload := appendKeyFields(nil, rec.Experiment, rec.Hash, rec.Replicate)
	if typ == blockRecordJSON {
		return append(payload, doc...)
	}
	buf := bytes.NewBuffer(binary.LittleEndian.AppendUint32(payload, uint32(len(doc))))
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

// decodePayload is the record a record block's payload of type typ
// holds.
func decodePayload(typ byte, payload []byte) (runstore.Record, error) {
	var f runstore.Fields
	if err := recordFields(typ, payload, new([]byte), &f); err != nil {
		return runstore.Record{}, err
	}
	return f.Record(), nil
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
		got, err := decodeRecord(1, data[b.off:b.off+b.n])
		if err != nil || !reflect.DeepEqual(got, want[i]) {
			t.Fatalf("block %d decodes to %+v, %v; want %+v", i, got, err, want[i])
		}
		exp, hash, rep, _, err := cutKeyFields(b.payload)
		if err != nil || string(exp) != want[i].Experiment || string(hash) != want[i].Hash || rep != want[i].Replicate {
			t.Fatalf("key fields = (%q, %q, %d), %v; want %s", exp, hash, rep, err, want[i].Key())
		}
		for cut := 0; cut < len(b.payload); cut++ {
			if _, err := decodePayload(blockRecordZ, b.payload[:cut]); err == nil {
				t.Fatalf("block %d: decode of a %d-byte prefix (of %d) succeeded", i, cut, len(b.payload))
			}
		}
	}
}

// TestBinaryPayloadRoundTrip: a record frame's body is the binary codec's
// payload of the record it was written from, and decodes back to it; its
// key is the payload's first three fields, which recovery reads without
// the rest; a prefix cut inside the key has no key (a checksum-valid frame
// recovery cannot index: corruption), one cut after it has a key but no
// record (corrupt at read); and so has a payload without a hash.
func TestBinaryPayloadRoundTrip(t *testing.T) {
	r := rec("exp-ü", 3, 7, -0.0)
	r.Hash = hashOf(r)
	r.Assignment["quote\"d"] = " "
	payload := runstore.AppendBinary(nil, r)
	frame, _, err := new(layout).appendRecord(nil, r, DefaultIndexInterval)
	if typ, body, ok := splitBlock(latest, frame); err != nil || !ok || typ != blockRecord || !bytes.Equal(body, payload) {
		t.Fatalf("a record frame's body is not the binary codec's payload: type %d, %v", typ, err)
	}
	if got, err := decodeRecord(latest, frame); err != nil || !reflect.DeepEqual(got, r) {
		t.Fatalf("round trip = %+v, %v; want %+v", got, err, r)
	}
	exp, hash, rep, err := binaryKey(payload)
	if err != nil || string(exp) != r.Experiment || string(hash) != r.Hash || rep != r.Replicate {
		t.Fatalf("binaryKey = (%q, %q, %d), %v; want %s", exp, hash, rep, err, r.Key())
	}
	keyLen := 1 + len(r.Experiment) + 1 + len(r.Hash) + 1
	for cut := 0; cut < len(payload); cut++ {
		_, _, _, kerr := binaryKey(payload[:cut])
		if (kerr == nil) != (cut >= keyLen) {
			t.Fatalf("key of a %d-byte prefix: %v (the key is %d bytes)", cut, kerr, keyLen)
		}
		if _, err := decodePayload(blockRecord, payload[:cut]); err == nil {
			t.Fatalf("decode of a %d-byte prefix (of %d) succeeded", cut, len(payload))
		}
	}
	hashless := r
	hashless.Hash = ""
	if _, _, _, err := binaryKey(runstore.AppendBinary(nil, hashless)); err == nil {
		t.Fatal("a binary record block without a hash has a key")
	}
}

// TestCompressedAppendMixedAndReopen reads the golden archive whose blocks
// alternate plain and compressed — written by the live Archive of a build
// that could still switch encodings mid-stream — through the read-only
// open, which refuses an append and leaves the file as it was; then
// upgrades it the way the refusal says (a rewrite into version 3, here by
// Compact, which keeps the order) and takes the upgraded file through
// appends, a reopen, and the crash-recovery replay.
func TestCompressedAppendMixedAndReopen(t *testing.T) {
	path, original := copyGolden(t, "archive.v1.mixed.arch")
	if info, err := runstore.Inspect(path); err != nil || !strings.Contains(info.Detail, "(2 compressed)") {
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
	check(a, "legacy open")
	more := rec("golden", 5, 0, 5)
	if err := a.Append(more); err == nil || !strings.Contains(err.Error(), "read-only version-1 archive") {
		t.Fatalf("Append to a version-1 archive = %v, want it refused", err)
	}
	a.Close()
	if after, _ := os.ReadFile(path); !bytes.Equal(after, original) {
		t.Fatal("a refused append changed the file")
	}

	upgraded := filepath.Join(t.TempDir(), "upgraded.arch")
	if _, err := runstore.Compact(path, upgraded); err != nil {
		t.Fatal(err)
	}
	if a, err = Open(upgraded); err != nil {
		t.Fatal(err)
	}
	check(a, "upgraded")
	if err := a.Append(more); err != nil {
		t.Fatal(err)
	}
	more.Hash = hashOf(more)
	want = append(want, more)
	check(a, "live")
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	if a, err = Open(upgraded); err != nil {
		t.Fatal(err)
	}
	check(a, "reopen")
	a.Close()
	tearArchive(t, upgraded)
	if a, err = Open(upgraded); err != nil {
		t.Fatal(err)
	}
	defer a.Close()
	if !a.Torn() {
		t.Fatal("recovery from a torn tail did not report it")
	}
	check(a, "recovery")
}

// TestCompressedTornTailRecovery cuts the last record block of an archive
// — the golden legacy compact one (type 4) and one written today (a
// version-3 frame) — at every byte boundary: Open serves the complete
// records before it (truncating a version-3 file there, leaving the
// read-only legacy one as it is), the streaming walk drops the same
// tail, and neither depends on the block's encoding.
func TestCompressedTornTailRecovery(t *testing.T) {
	today := filepath.Join(t.TempDir(), "today.arch")
	if err := Write(today, runstore.Seq(goldenWritten()), ""); err != nil {
		t.Fatal(err)
	}
	legacy, _ := copyGolden(t, "archive.v1.archz")
	for _, src := range []string{legacy, today} {
		data, err := os.ReadFile(src)
		if err != nil {
			t.Fatal(err)
		}
		v := versionOf(data[:len(Magic)])
		last := blocksOf(data)[3] // the fourth record; the index page and footer follow
		if !isRecord(v, last.typ) || last.typ == blockRecordJSON {
			t.Fatalf("%s: block 3 has type %d", src, last.typ)
		}
		want := goldenFrames()[:3] // the fourth, cut, superseded the first
		for cut := last.off + 1; cut < last.off+last.n; cut++ {
			torn := filepath.Join(t.TempDir(), "torn.arch")
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

// TestMergeArchzDispatch checks the registered .archz destination: a
// merge into foo.archz writes the bytes the merge into foo.arch writes —
// one version-3 archive, two names — which reads back record-identical and
// round-trips through a JSONL journal losslessly.
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
	if !strings.HasPrefix(info.Detail, "archive v3: 50 record block(s),") {
		t.Fatalf(".archz Inspect detail %q: not a version-3 archive", info.Detail)
	}
	if a, b := readFile(t, packed), readFile(t, plain); !bytes.Equal(a, b) {
		t.Fatalf("the .archz merge wrote %d byte(s), the .arch merge %d different ones", len(a), len(b))
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

func readFile(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
