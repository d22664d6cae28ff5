package runstore

import (
	"bytes"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/framelog"
)

// FuzzJournalParse feeds arbitrary byte streams — valid journals,
// torn tails, interleaved garbage, truncated records — through the
// journal parser. The properties under test:
//
//  1. Open never panics, whatever the file holds; it either loads or
//     returns an error.
//  2. When Open succeeds, it serves what LoadRecords — the index pass
//     and positioned reads, which share nothing with Open's decoder and
//     index but the record grammar — reads from the file: the same
//     records, record for record and in the same order (a missing hash
//     derived, no map shared where the records differ, Key's identity).
//  3. When Open succeeds, the journal stays writable: appending a fresh
//     record and reopening must preserve every complete record Open
//     served, with its values intact — the round-trip durability claim
//     resume depends on.
func FuzzJournalParse(f *testing.F) {
	valid := `{"experiment":"e","row":0,"replicate":0,"hash":"00000000000000aa","assignment":{"f":"x"},"responses":{"ms":1.5}}`
	f.Add([]byte(""))
	f.Add([]byte("\n\n  \n"))
	f.Add([]byte(valid + "\n"))
	f.Add([]byte(valid + "\n" + valid))                          // parseable but unterminated tail
	f.Add([]byte(valid + "\n" + `{"experiment":"e","ro`))        // torn tail
	f.Add([]byte(`{"experiment":"e","ro` + "\n" + valid + "\n")) // corrupt interior line
	f.Add([]byte("{}\n" + valid + "\n{}\n"))                     // minimal records interleaved
	f.Add([]byte(`{"experiment":"e","replicate":-3,"hash":"h"}` + "\n"))
	f.Add([]byte{0xff, 0xfe, '{', '}', '\n'})
	f.Add([]byte(`{"experiment":"e","row":0,"replicate":0,"assignment":{"f":"x"},"responses":{"ms":1}}` + "\n"))
	f.Add([]byte(valid + "\n" + strings.Replace(valid, `{"f":"x"}`, `{"f":"y"}`, 1) + "\n"))
	f.Add([]byte(`{"experiment":"a/b","row":0,"replicate":0,"hash":"c","assignment":null,"responses":null}` + "\n" +
		`{"experiment":"a","row":0,"replicate":0,"hash":"b/c","assignment":{},"responses":{}}` + "\n"))
	f.Fuzz(func(t *testing.T, data []byte) {
		path := filepath.Join(t.TempDir(), "fuzz.jsonl")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := Open(path)
		if err != nil {
			return // rejected (corrupt interior line); rejecting is fine, panicking is not
		}
		recs, err := Collect(j.Scan())
		if err != nil {
			t.Fatalf("scan of reopened journal failed: %v", err)
		}
		if formatOf(path).Name == jsonCodec.name { // not bytes another reader sniffs as its own
			want, err := LoadRecords(path)
			if err != nil {
				t.Fatalf("Open served %d record(s), LoadRecords failed: %v", len(recs), err)
			}
			if !reflect.DeepEqual(recs, want) {
				t.Fatalf("Open serves\n%+v\nLoadRecords reads\n%+v", recs, want)
			}
		}
		extra := Record{
			Experiment: "fuzz-extra",
			Replicate:  0,
			Assignment: map[string]string{"f": "x"},
			Responses:  map[string]float64{"v": 1},
		}
		extraKey := Key(extra.Experiment, AssignmentHash(extra.Assignment), extra.Replicate)
		if err := j.Append(extra); err != nil {
			t.Fatalf("append to reopened journal failed: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close failed: %v", err)
		}

		j2, err := Open(path)
		if err != nil {
			t.Fatalf("journal unreadable after append: %v", err)
		}
		defer j2.Close()
		for _, rec := range recs {
			if rec.Key() == extraKey {
				continue // the fuzz input happened to collide with the probe record
			}
			got, ok := j2.Lookup(rec.Experiment, rec.Hash, rec.Replicate)
			if !ok {
				t.Fatalf("record %s lost in round trip", rec.Key())
			}
			if !reflect.DeepEqual(got.Responses, rec.Responses) {
				t.Fatalf("record %s responses changed in round trip: %v -> %v",
					rec.Key(), rec.Responses, got.Responses)
			}
		}
		if _, ok := j2.Lookup(extra.Experiment, AssignmentHash(extra.Assignment), 0); !ok {
			t.Fatal("appended record lost after reopen")
		}
	})
}

// FuzzBinaryDecode is FuzzJournalParse's twin for binary record files:
// arbitrary bytes go through the frame decoder and every reader of a
// .binj. The properties under test:
//
//  1. decodeBinaryRecord never panics — it decodes or errors, whatever
//     the payload bytes are — and, being a projection of walkBinary, it
//     and the field pass agree with the decoder that was there before
//     the walk (checkBinaryWalk).
//  2. OpenSource, ScanFile and Inspect never panic on arbitrary frame
//     data after the magic, never modify the file, and agree: the source's
//     entry pass, ScanFile and Inspect fail together, and when they
//     succeed ScanFile serves Inspect's distinct count, and every record
//     it served survives Merge's rewrite into a fresh .binj — the
//     durability claim the JSONL fuzz pins, for the one writer binary
//     record files have.
func FuzzBinaryDecode(f *testing.F) {
	valid := appendRecordFrame(nil, Record{
		Experiment: "e", Row: 0, Replicate: 0, Hash: "00000000000000aa",
		Assignment: map[string]string{"f": "x"},
		Responses:  map[string]float64{"ms": 1.5},
	})
	f.Add([]byte(""))
	f.Add(valid)
	f.Add(append(append([]byte{}, valid...), valid...))
	f.Add(append(append([]byte{}, valid...), valid[:len(valid)-3]...)) // torn tail
	f.Add(valid[:framelog.FrameHeaderSize])                            // header, no payload
	f.Add([]byte{0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0})                  // absurd length claim
	f.Add([]byte{3, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3})         // bad checksum
	// Payloads the walk must hand to the long way round, bare (the fuzz body
	// decodes its input as a payload too) and framed.
	for _, payload := range [][]byte{
		AppendBinary(nil, Record{Experiment: "e"}), // missing hash, nil maps
		AppendBinary(nil, Record{Experiment: "e", Hash: "h", Assignment: map[string]string{}, Responses: map[string]float64{}}), // {} maps
		AppendBinary(nil, Record{Experiment: "e", Hash: "h", Responses: map[string]float64{"v": math.Copysign(0, -1)}}),         // -0
		{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'g', 1, 'x', 1, 'f', 1, 'y', 0},                                                         // descending keys
		{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'f', 1, 'x', 1, 'f', 1, 'y', 0},                                                         // repeated key
		{0x81, 0, 'e', 1, 'h', 0, 0, 0, 0},                                    // overlong varint
		{1, 'e', 1, 'h', 0, 0, 0, 1, 1, 1, 'v', 1, 0, 0, 0, 0, 0, 0xf8, 0x7f}, // NaN response
		{1, 'e', 1, 'h', 0, 0, 2, 0},                                          // bad marker
		{1, 'e', 1, 'h', 0, 0, 1, 9, 1, 'f'},                                  // count beyond payload
	} {
		f.Add(payload)
		f.Add(binaryCodec.framing.Seal(append(binaryCodec.framing.Reserve(nil), payload...), 0))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: the payload decoder is total, and the walk under it
		// is the decoder it replaced.
		if len(data) > framelog.FrameHeaderSize {
			checkBinaryWalk(t, data[framelog.FrameHeaderSize:])
		}
		checkBinaryWalk(t, data)

		dir := t.TempDir()
		path := filepath.Join(dir, "fuzz.binj")
		image := append([]byte(BinaryMagic), data...)
		if err := os.WriteFile(path, image, 0o644); err != nil {
			t.Fatal(err)
		}
		r, err := OpenSource(path)
		if err != nil {
			t.Fatalf("OpenSource of a file with the binary magic: %v", err)
		}
		var entryErr error
		for _, err := range r.Entries() {
			entryErr = err
		}
		r.Close()
		info, inspectErr := Inspect(path)
		recs, scanErr := Collect(ScanFile(path))
		if (entryErr == nil) != (inspectErr == nil) || (inspectErr == nil) != (scanErr == nil) {
			t.Fatalf("readers disagree: entries %v, Inspect %v, ScanFile %v", entryErr, inspectErr, scanErr)
		}
		if after, _ := os.ReadFile(path); !bytes.Equal(after, image) {
			t.Fatal("a reader modified the file")
		}
		if scanErr != nil {
			return // rejected (undecodable checksummed frame); rejecting is fine, panicking is not
		}
		if info.Distinct != len(recs) {
			t.Fatalf("Inspect counts %d distinct record(s), ScanFile serves %d", info.Distinct, len(recs))
		}

		merged := filepath.Join(dir, "merged.binj")
		if _, err := Merge([]string{path}, merged); err != nil {
			t.Fatalf("Merge of a readable binary record file: %v", err)
		}
		again, err := Collect(ScanFile(merged))
		if err != nil {
			t.Fatalf("the merged binary record file is unreadable: %v", err)
		}
		byKey := make(map[string]Record, len(again))
		for _, rec := range again {
			byKey[rec.Key()] = rec
		}
		if len(again) != len(recs) {
			t.Fatalf("Merge kept %d of %d record(s)", len(again), len(recs))
		}
		for _, rec := range recs {
			got, ok := byKey[rec.Key()]
			if !ok {
				t.Fatalf("record %s lost in round trip", rec.Key())
			}
			if !sameRecord(Record{Responses: got.Responses}, Record{Responses: rec.Responses}) { // a stored NaN is not equal to itself
				t.Fatalf("record %s responses changed in round trip: %v -> %v",
					rec.Key(), rec.Responses, got.Responses)
			}
		}
	})
}

// FuzzJSONCodec holds the hand-written JSON record codec to its
// specification, encoding/json, on arbitrary input:
//
//  1. DecodeJSON and json.Unmarshal (into a zero Record) both fail, with
//     one message, or return deeply equal records — nil and empty maps
//     told apart.
//  2. For every record that decodes, AppendJSON's bytes are
//     json.Marshal's.
//  3. The same holds for a record cut from the raw input itself —
//     invalid UTF-8, control characters and non-finite responses
//     included, which no decoded record can carry.
//  4. The field pass agrees with DecodeJSON on every input
//     (checkFieldsAgainstDecode): whatever walkJSON recognises is what the
//     decoder decodes, and whatever it does not is flattened to the same.
func FuzzJSONCodec(f *testing.F) {
	valid := `{"experiment":"e","row":0,"replicate":0,"hash":"00000000000000aa","assignment":{"f":"x"},"responses":{"ms":1.5}}`
	f.Add([]byte(valid))
	f.Add([]byte(`{"experiment":"e","row":12,"replicate":3,"hash":"h","assignment":null,"responses":{}}`))
	f.Add([]byte(`{"experiment":"a\u003cb","row":-1,"replicate":0,"hash":"","assignment":{"k":"v","k":"w"},"responses":{"a":-0,"b":1e21,"c":1e-7,"d":5e-324}}`))
	f.Add([]byte(`{"experiment":"é","row":9007199254740993,"replicate":0,"hash":"h","assignment":{"\u2028":"\n"},"responses":{"v":1.7976931348623157e+308}}`))
	f.Add([]byte(`{"replicate":2,"experiment":"e","unknown":[1,{"x":null}]}`))
	f.Add([]byte(valid + " "))
	f.Add([]byte(valid + "}"))
	f.Add([]byte(valid[:len(valid)-9] + `1e999}}`))
	f.Add([]byte("{\"experiment\":\"\xff\x00<>&\"}"))
	f.Add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 'n', 'a', 'n'})
	// Each way a document decodes without being one the walk recognises.
	for _, edit := range [][2]string{
		{`{"f":"x"}`, `{"f":"x","f":"y"}`},          // repeated key
		{`{"f":"x"}`, `{"g":"x","f":"y"}`},          // descending keys
		{`{"ms":1.5}`, `{"ms":1.5,"io":2,"ms":3}`},  // both, in the responses
		{`"f":"x"`, `"\u0066":"x\n"`},               // escapes
		{`{"f":"x"}`, `null`}, {`{"ms":1.5}`, `{}`}, // null and {} maps
		{`1.5`, `-0`}, {`"row":0`, `"row":-0`}, // -0, as a response and as an integer
		{`"hash":"00000000000000aa",`, ``},         // no hash
		{`"hash":"00000000000000aa"`, `"hash":""`}, // an empty one
		{`"e"`, `"<e>"`},                           // raw HTML characters: walked, not canonical
	} {
		f.Add(bytes.Replace([]byte(valid), []byte(edit[0]), []byte(edit[1]), 1))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, ok := checkDecodeAgainstStdlib(t, data); ok {
			checkEncodeAgainstStdlib(t, rec)
		}
		checkFieldsAgainstDecode(t, jsonCodec, data)
		var bits [8]byte
		copy(bits[:], data)
		half := string(data[:len(data)/2])
		rest := string(data[len(data)/2:])
		checkEncodeAgainstStdlib(t, Record{
			Experiment: rest, Row: len(data), Replicate: -len(half), Hash: half,
			Assignment: map[string]string{half: rest, rest: half},
			Responses:  map[string]float64{half: math.Float64frombits(binary.BigEndian.Uint64(bits[:])), rest: 1},
		})
	})
}

// sameRecord reports whether two records are field for field the same —
// nil and empty maps told apart, a NaN equal to itself — by their binary
// encoding, which spells all of that out.
func sameRecord(a, b Record) bool {
	return bytes.Equal(AppendBinary(nil, a), AppendBinary(nil, b))
}

// membersAscend reports whether both of a view's member lists are in
// strictly ascending key order, as Fields promises.
func membersAscend(f *Fields) bool {
	for i, a := 1, f.Assignment(); i < len(a); i++ {
		if bytes.Compare(a[i-1].Key, a[i].Key) >= 0 {
			return false
		}
	}
	for i, r := 1, f.Responses(); i < len(r); i++ {
		if bytes.Compare(r[i-1].Name, r[i].Name) >= 0 {
			return false
		}
	}
	return true
}

// checkFieldsAgainstDecode holds a codec's field pass to its decoder, on
// any payload: it refuses exactly what decode refuses, in the same words;
// otherwise the view holds the decoded record (a missing hash derived)
// flattened in key order — every member, keys strictly ascending — its
// fingerprint is Fingerprint's and its entry is entryOf's.
func checkFieldsAgainstDecode(t *testing.T, c *codec, payload []byte) {
	t.Helper()
	var f Fields
	err := c.fields(payload, &f)
	rec, derr := c.decode(payload)
	if (err != nil) != (derr != nil) || err != nil && err.Error() != derr.Error() {
		t.Fatalf("%s fields(%q) error = %v, decode error = %v", c.name, payload, err, derr)
	}
	if err != nil {
		return
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	if got := f.Record(); !sameRecord(got, rec) {
		t.Fatalf("%s fields(%q) hold\n %#v\ndecode gives\n %#v", c.name, payload, got, rec)
	}
	if a := f.Assignment(); len(a) != len(rec.Assignment) || (a == nil) != (rec.Assignment == nil) {
		t.Fatalf("%s fields(%q): %d assignment member(s) (nil %v), the record has %d", c.name, payload, len(a), a == nil, len(rec.Assignment))
	}
	if r := f.Responses(); len(r) != len(rec.Responses) || (r == nil) != (rec.Responses == nil) {
		t.Fatalf("%s fields(%q): %d response member(s) (nil %v), the record has %d", c.name, payload, len(r), r == nil, len(rec.Responses))
	}
	if !membersAscend(&f) {
		t.Fatalf("%s fields(%q): members out of key order: %q, %+v", c.name, payload, f.Assignment(), f.Responses())
	}
	if got, want := f.Fingerprint(), Fingerprint(rec); got != want {
		t.Fatalf("%s fields(%q) fingerprint %x, Fingerprint of the decoded record %x", c.name, payload, got, want)
	}
	if got, want := f.Entry(), entryOf(rec); got != want {
		t.Fatalf("%s fields(%q) entry\n got %+v\nwant %+v", c.name, payload, got, want)
	}
}

// checkBinaryWalk holds walkBinary's two projections to the decoder the
// walk replaced (referenceDecodeBinary), on any payload: decodeBinaryRecord
// refuses what it refused, in the same words, and decodes the rest to the
// same record; and the field pass agrees with that.
func checkBinaryWalk(t *testing.T, payload []byte) {
	t.Helper()
	got, err := decodeBinaryRecord(payload)
	want, werr := referenceDecodeBinary(payload)
	if (err != nil) != (werr != nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("decodeBinaryRecord(%q) error = %v, the reference decoder's = %v", payload, err, werr)
	}
	if err == nil && !sameRecord(got, want) {
		t.Fatalf("decodeBinaryRecord(%q) =\n %#v\nthe reference decoder gives\n %#v", payload, got, want)
	}
	checkFieldsAgainstDecode(t, binaryCodec, payload)
}
