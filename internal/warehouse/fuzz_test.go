package warehouse

import (
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/framelog"
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
