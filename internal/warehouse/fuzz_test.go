package warehouse

import (
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/framelog"
	"repro/internal/runstore"
)

// FuzzWarehouseIndex feeds arbitrary byte streams — valid indexes, torn
// tails, corrupt frames, absurd length claims — through the index-file
// decoder, the same discipline FuzzJournalParse and FuzzBinaryDecode
// pin for the record stores. The properties under test:
//
//  1. The decoder is total: readFrames and openIndex decode or
//     error, whatever the bytes are — never a panic, never an
//     unbounded allocation from a corrupt length field.
//  2. When openIndex accepts the file, the index stays writable
//     and every run it served survives a Put + reopen round trip — the
//     durability claim Refresh's incremental skip depends on.
func FuzzWarehouseIndex(f *testing.F) {
	frame := func(r Run) []byte {
		out, err := encodeIndexFrame(r)
		if err != nil {
			f.Fatal(err)
		}
		return out
	}
	valid := frame(Run{Path: "a.jsonl", Size: 9, ModTimeNS: 10, Records: 1})
	tomb := frame(Run{Path: "b.jsonl", ModTimeNS: 20, Pruned: true})
	f.Add([]byte(""))
	f.Add([]byte(IndexMagic))
	f.Add(append([]byte(IndexMagic), valid...))
	f.Add(append(append([]byte(IndexMagic), valid...), tomb...))
	f.Add(append(append([]byte(IndexMagic), valid...), valid[:len(valid)-3]...))   // torn tail
	f.Add(append([]byte(IndexMagic), valid[:framelog.FrameHeaderSize-2]...))       // short header
	f.Add(append([]byte(IndexMagic), 0xff, 0xff, 0xff, 0x7f, 0, 0, 0, 0))          // absurd length claim
	f.Add(append([]byte(IndexMagic), 3, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3)) // bad checksum
	f.Add([]byte("NOTANIDX"))
	f.Fuzz(func(t *testing.T, data []byte) {
		// Property 1: the frame decoder is total, with or without magic.
		readFrames(data)
		readFrames(append([]byte(IndexMagic), data...))

		path := filepath.Join(t.TempDir(), "fuzz.idx")
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}
		e, err := openIndex(path)
		if err != nil {
			return // rejected (foreign magic, corrupt frame); rejecting is fine, panicking is not
		}
		served := e.Runs()
		extra := Run{Path: "fuzz-extra.jsonl", Size: 1, ModTimeNS: 1, Records: 1}
		if err := e.Put(extra); err != nil {
			t.Fatalf("put into reopened index failed: %v", err)
		}
		if err := e.Close(); err != nil {
			t.Fatalf("close failed: %v", err)
		}

		e2, err := openIndex(path)
		if err != nil {
			t.Fatalf("index unreadable after put: %v", err)
		}
		defer e2.Close()
		after := make(map[string]Run)
		for _, r := range e2.Runs() {
			after[r.Path] = r
		}
		for _, r := range served {
			if r.Path == extra.Path {
				continue // the fuzz input happened to collide with the probe run
			}
			got, ok := after[r.Path]
			if !ok {
				t.Fatalf("run %s lost in round trip", r.Path)
			}
			if !reflect.DeepEqual(got, r) {
				t.Fatalf("run %s changed in round trip: %+v -> %+v", r.Path, r, got)
			}
		}
		if _, ok := after[extra.Path]; !ok {
			t.Fatal("put run lost after reopen")
		}
	})
}

// FuzzIngest holds ingest to referenceIngest (same) over frame sequences
// the fuzzer spells, each written as a .jsonl, a .binj and an .arch source:
// the same Run bit for bit, or the same error. The first two bytes choose
// a byte of the file to flip and a tail to cut off (zero for neither);
// then each frame takes four bytes — experiment, hash, assignment,
// responses — and a varint replicate, from alphabets small enough that
// keys repeat and frames supersede one another. Maps come null, empty or
// filled, a hash empty (derived on append) or holding a slash, so two
// cells can spell one key, and replicate numbers run to 2^63-1.
func FuzzIngest(f *testing.F) {
	f.Add([]byte{0, 0, 0, 0, 0, 0, 0})
	f.Add([]byte{0, 0, 2, 1, 2, 0x1e, 14, 2, 1, 3, 0x3f, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x80, 0x01, 2, 1, 2, 0x1e, 14})
	f.Add([]byte{128, 0, 0, 3, 2, 0x8e, 0, 1, 2, 3, 1, 3, 2, 3, 0, 3, 0, 0, 0, 0x82, 9})
	f.Add([]byte{0, 9, 4, 5, 6, 0xfe, 1, 4, 5, 6, 0xfe, 2, 0, 0, 0, 0, 0})
	values := []float64{0, math.Copysign(0, -1), 1.5, -2.25, 1e15, 5e-324, 7, 0.1}
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		flip, cut := int(data[0]), int(data[1])
		var frames []runstore.Record
		for data = data[2:]; len(data) >= 5 && len(frames) < 64; {
			e, h, a, r := data[0], data[1], data[2], data[3]
			rep, n := binary.Uvarint(data[4:])
			if n <= 0 {
				n = len(data) - 4
			}
			data = data[4+n:]
			rec := runstore.Record{
				Experiment: []string{"e", "f", "e/x"}[e%3],
				Hash:       []string{"", "h0", "h1", "x/h0"}[h%4],
				Replicate:  int(rep >> 1),
			}
			if a%4 > 0 {
				rec.Assignment = map[string]string{}
				for k, name := range []string{"f", "g"}[:a%4-1] {
					rec.Assignment[name] = []string{"1", "2", "3"}[int(a>>(2+2*k))%3]
				}
			}
			if r&1 == 1 {
				rec.Responses = map[string]float64{}
				for k, name := range []string{"ms", "io", "rows"} {
					if r>>(1+k)&1 == 1 {
						rec.Responses[name] = values[int(r>>4+e>>2+byte(k))%len(values)]
					}
				}
			}
			frames = append(frames, rec)
		}
		root := t.TempDir()
		for _, ext := range []string{".jsonl", ".binj", ".arch"} {
			path := filepath.Join(root, "fuzz"+ext)
			appendStore(t, path, ext, frames)
			b, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if flip > 0 && len(b) > 0 {
				b[flip*len(b)/256] ^= 1
			}
			if err := os.WriteFile(path, b[:len(b)-min(cut, len(b))], 0o644); err != nil {
				t.Fatal(err)
			}
			same(t, root, "fuzz"+ext)
		}
	})
}
