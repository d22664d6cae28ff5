package runstore

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/framelog"
)

// FuzzJournalParse feeds arbitrary byte streams — valid journals,
// torn tails, interleaved garbage, truncated records — through the
// journal parser. The properties under test:
//
//  1. Open never panics, whatever the file holds; it either loads or
//     returns an error.
//  2. When Open succeeds, the journal stays writable: appending a fresh
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

// FuzzBinaryDecode is FuzzJournalParse's twin for the binary journal:
// arbitrary bytes go through the frame decoder and the file opener.
// The properties under test:
//
//  1. decodeBinaryRecord never panics — it decodes or errors, whatever
//     the payload bytes are.
//  2. OpenBinary never panics on arbitrary frame data after the magic;
//     when it succeeds, the journal stays writable and every record it
//     served survives an append + reopen round trip — the same
//     durability claim the JSONL fuzz pins.
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
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: the payload decoder is total.
		if len(data) > framelog.FrameHeaderSize {
			decodeBinaryRecord(data[framelog.FrameHeaderSize:])
		}
		decodeBinaryRecord(data)

		path := filepath.Join(t.TempDir(), "fuzz.binj")
		if err := os.WriteFile(path, append([]byte(BinaryMagic), data...), 0o644); err != nil {
			t.Fatal(err)
		}
		j, err := OpenBinary(path)
		if err != nil {
			return // rejected (undecodable checksummed frame); rejecting is fine, panicking is not
		}
		recs, err := Collect(j.Scan())
		if err != nil {
			t.Fatalf("scan of reopened binary journal failed: %v", err)
		}
		extra := Record{
			Experiment: "fuzz-extra",
			Replicate:  0,
			Assignment: map[string]string{"f": "x"},
			Responses:  map[string]float64{"v": 1},
		}
		extraKey := Key(extra.Experiment, AssignmentHash(extra.Assignment), extra.Replicate)
		if err := j.Append(extra); err != nil {
			t.Fatalf("append to reopened binary journal failed: %v", err)
		}
		if err := j.Close(); err != nil {
			t.Fatalf("close failed: %v", err)
		}

		j2, err := OpenBinary(path)
		if err != nil {
			t.Fatalf("binary journal unreadable after append: %v", err)
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
	f.Fuzz(func(t *testing.T, data []byte) {
		if rec, ok := checkDecodeAgainstStdlib(t, data); ok {
			checkEncodeAgainstStdlib(t, rec)
		}
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
