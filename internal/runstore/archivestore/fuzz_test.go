package archivestore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// FuzzArchiveReader feeds arbitrary bytes after either archive magic —
// seeded with the golden archives, whole and cut, and with hand-built
// blocks of every record type (JSON, legacy compressed, binary, binary
// with a malformed payload under a valid checksum), an unknown type and
// torn tails — to both readers of the format. The properties under test:
//
//  1. Neither the streaming walk (OpenReader) nor Archive.Open and its
//     Scan panics, whatever follows the magic; Open accepts every file
//     with a valid magic.
//  2. Every checksummed record block is judged by one rule, whatever its
//     type: a block whose key does not parse — where a recovery scan
//     stops — yields no fields; one whose fields the walk reads has the
//     key recovery indexes it under, and a point read decodes it to the
//     same record.
//  3. When the walk reads every record block, Archive.Open + Scan serves
//     its last-wins view: in first-appended order, each key's last
//     record. A recovery scan must agree outright; a finalized open is
//     held to it whenever its index pages describe the blocks the walk
//     read (pages are trusted by design — that is the O(index) open — so
//     pages that point elsewhere are not this target's subject).
func FuzzArchiveReader(f *testing.F) {
	for _, name := range []string{"archive.v1.arch", "archive.v1.mixed.arch", "archive.v1.archz", "archive.v1.torn.archz", "archive.v2.archz"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			f.Fatal(err)
		}
		v2, body := versionOf(data[:headerSize]) == 2, data[headerSize:]
		f.Add(v2, body)
		f.Add(v2, body[:len(body)-trailerSize-5]) // a finalize cut short
		f.Add(v2, body[:len(body)/2])             // a torn record block
	}
	var body []byte
	for i := 0; i < 6; i++ {
		r := rec("e", i%4, i%2, float64(i)) // rows repeat: superseded blocks
		r.Hash = hashOf(r)
		typ, payload, _ := appendRecordPayload(nil, 1+i%3%2, r) // JSON, binary, then
		if i%3 == 2 {
			typ, payload = blockRecordZ, legacyPayloadZ(f, r) // compressed
		}
		body = appendBlock(body, typ, payload)
		if i == 3 {
			body = appendBlock(body, 42, []byte("future auxiliary data"))
		}
	}
	bin := runstore.AppendBinary(nil, runstore.Record{Experiment: "e", Hash: "h", Assignment: map[string]string{"k": "v"}})
	for _, v2 := range []bool{false, true} {
		f.Add(v2, body)
		f.Add(v2, append(body[:len(body):len(body)], appendBlock(nil, blockRecordB, bin)[:12]...))       // torn
		f.Add(v2, appendBlock(body[:len(body):len(body)], blockRecordB, bin[:len(bin)-3]))               // key whole, record cut
		f.Add(v2, appendBlock(appendBlock(nil, blockRecordB, bin[:3]), blockRecordB, bin))               // key cut
		f.Add(v2, appendBlock(appendBlock(nil, blockRecordB, bin), blockRecordB, append(bin, 0)))        // a trailing byte
		f.Add(v2, appendBlock(nil, blockRecordB, []byte{1, 'e', 0, 0, 0, 0, 0}))                         // no hash
		f.Add(v2, appendBlock(appendBlock(nil, blockRecord, []byte("not a record")), blockRecordB, bin)) // key cut, type 1
	}
	path := filepath.Join(f.TempDir(), "fuzz.arch") // one file, rewritten by every input: a directory per input costs more than the input
	f.Fuzz(func(t *testing.T, v2 bool, body []byte) {
		magic := Magic
		if v2 {
			magic = MagicV2
		}
		data := append([]byte(magic), body...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Property 2, block by block over the data region.
		for _, b := range blocksOf(data) {
			if b.typ == blockFooter {
				break
			}
			if !isRecordBlock(b.typ) {
				continue
			}
			exp, hash, rep, kerr := recordPayloadKey(b.typ, b.payload)
			var fields runstore.Fields
			ferr := recordFields(b.typ, b.payload, new([]byte), &fields)
			if kerr != nil && ferr == nil {
				t.Fatalf("type-%d block at %d: no key (%v), yet fields", b.typ, b.off, kerr)
			}
			if ferr != nil {
				continue
			}
			want := fields.Record()
			if b.typ == blockRecordB && runstore.Key(exp, hash, rep) != want.Key() {
				t.Fatalf("binary block at %d: keyed %s, holds %s", b.off, runstore.Key(exp, hash, rep), want.Key())
			}
			if got, err := decodeRecordBlock(b.typ, b.payload); err != nil || !reflect.DeepEqual(got, want) {
				t.Fatalf("type-%d block at %d: the walk reads %+v, a point read %+v, %v", b.typ, b.off, want, got, err)
			}
		}

		// The walk, read-only: every record block with its extent.
		src, err := OpenReader(path)
		if err != nil {
			t.Fatalf("OpenReader: %v", err)
		}
		var (
			order   []string
			last    = map[string]runstore.Record{}
			extents = map[string]entry{}
		)
		walkErr := src.(*reader).walk(func(f *runstore.Fields, ext runstore.Extent) bool {
			rec := f.Record()
			k := rec.Key()
			if _, seen := last[k]; !seen {
				order = append(order, k)
			}
			last[k], extents[k] = rec, entry{off: ext.Off, n: int32(ext.Len)}
			return true
		})
		src.Close()

		a, err := Open(path)
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		defer a.f.Close() // not Close: finalizing syncs, and a sync per input is most of its cost
		served, scanErr := runstore.Collect(a.Scan())
		if walkErr != nil {
			return // a record block that does not decode: the walk's error, and a point read's (property 2)
		}
		a.mu.Lock()
		sameIndex := reflect.DeepEqual(a.order, order) && len(a.idx) == len(extents)
		for k, e := range extents {
			sameIndex = sameIndex && a.idx[k] == e
		}
		finalized := !a.dirty
		a.mu.Unlock()
		if !sameIndex {
			if !finalized {
				t.Fatalf("recovery indexed %v, the walk read %v", a.order, order)
			}
			return
		}
		want := make([]runstore.Record, len(order))
		for i, k := range order {
			want[i] = last[k]
		}
		if scanErr != nil || len(served) != len(want) || (len(want) > 0 && !reflect.DeepEqual(served, want)) {
			t.Fatalf("Archive.Open + Scan serves %+v, %v; the walk's last-wins view is %+v (finalized %v, %s)",
				served, scanErr, want, finalized, strings.TrimSpace(a.Info().Detail))
		}
	})
}
