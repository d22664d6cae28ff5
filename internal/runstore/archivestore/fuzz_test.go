package archivestore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// FuzzArchiveReader feeds arbitrary bytes after any version's archive
// magic — seeded with the golden archives, whole and cut, and with
// hand-built blocks of every record type (JSON, legacy compressed, binary,
// binary with a malformed payload under a valid checksum), an unknown type
// and torn tails, as legacy blocks and as version-3 frames — to both
// readers of the format. The properties under test:
//
//  1. Neither the streaming walk (OpenReader) nor Archive.Open and its
//     Scan panics, whatever follows the magic, and Open accepts every file
//     the walk reads: a legacy file opens exactly when the walk reads it
//     (it is that walk), a version-3 one whenever the walk reads it
//     (framelog may refuse more: a checksum-valid frame whose key does not
//     parse is corruption).
//  2. Every checksummed record block is judged by one rule, whatever its
//     type: a block whose key does not parse yields no fields; one whose
//     fields the walk reads has that key, and a point read decodes it to
//     the same record.
//  3. When the walk reads every record block, Archive.Open + Scan serves
//     its last-wins view: in first-appended order, each key's last
//     record. A legacy open and a version-3 recovery must agree outright;
//     a finalized open is held to it whenever its index pages describe
//     the blocks the walk read (pages are trusted by design — that is the
//     O(index) open — so pages that point elsewhere are not this target's
//     subject).
func FuzzArchiveReader(f *testing.F) {
	for _, name := range []string{"archive.v1.arch", "archive.v1.mixed.arch", "archive.v1.archz", "archive.v1.torn.archz", "archive.v2.archz", "archive.v3.arch"} {
		data, err := os.ReadFile(filepath.Join(goldenDir, name))
		if err != nil {
			f.Fatal(err)
		}
		v, body := uint8(versionOf(data[:len(Magic)])), data[len(Magic):]
		f.Add(v, body)
		f.Add(v, body[:len(body)-trailerSize-5]) // a finalize cut short
		f.Add(v, body[:len(body)/2])             // a torn record block
	}
	bin := runstore.AppendBinary(nil, runstore.Record{Experiment: "e", Hash: "h", Assignment: map[string]string{"k": "v"}})
	for v := uint8(1); v <= latest; v++ {
		add := appendFrame
		if v < latest {
			add = appendLegacyBlock
		}
		var body []byte
		for i := 0; i < 6; i++ {
			r := rec("e", i%4, i%2, float64(i)) // rows repeat: superseded blocks
			r.Hash = hashOf(r)
			switch {
			case v == latest || i%3 == 1:
				body = add(body, blockRecord, runstore.AppendBinary(nil, r))
			case i%3 == 0:
				body = add(body, blockRecordJSON, legacyPayload(f, blockRecordJSON, r))
			default:
				body = add(body, blockRecordZ, legacyPayload(f, blockRecordZ, r))
			}
			if i == 3 {
				body = add(body, 42, []byte("future auxiliary data"))
			}
		}
		f.Add(v, body)
		f.Add(v, append(body[:len(body):len(body)], add(nil, blockRecord, bin)[:12]...))   // torn
		f.Add(v, add(body[:len(body):len(body)], blockRecord, bin[:len(bin)-3]))           // key whole, record cut
		f.Add(v, add(add(nil, blockRecord, bin[:3]), blockRecord, bin))                    // key cut
		f.Add(v, add(add(nil, blockRecord, bin), blockRecord, append(bin, 0)))             // a trailing byte
		f.Add(v, add(nil, blockRecord, []byte{1, 'e', 0, 0, 0, 0, 0}))                     // no hash
		f.Add(v, add(add(nil, blockRecordJSON, []byte("not a record")), blockRecord, bin)) // key cut, type 1
	}
	path := filepath.Join(f.TempDir(), "fuzz.arch") // one file, rewritten by every input: a directory per input costs more than the input
	f.Fuzz(func(t *testing.T, v uint8, body []byte) {
		version := 1 + int(v)%latest
		data := append([]byte(versions[version].magic), body...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		// Property 2, block by block over the data region.
		for _, b := range blocksOf(data) {
			if version < latest && b.typ == blockFooter {
				break
			}
			if !isRecord(version, b.typ) {
				continue
			}
			var kerr error
			var exp, hash []byte
			var rep int
			if b.typ == blockRecord {
				exp, hash, rep, kerr = binaryKey(b.payload)
			} else {
				exp, hash, rep, _, kerr = cutKeyFields(b.payload)
			}
			var fields runstore.Fields
			ferr := recordFields(b.typ, b.payload, new([]byte), &fields)
			if kerr != nil && ferr == nil {
				t.Fatalf("type-%d block at %d: no key (%v), yet fields", b.typ, b.off, kerr)
			}
			if ferr != nil {
				continue
			}
			want := fields.Record()
			if b.typ == blockRecord && runstore.Key(string(exp), string(hash), rep) != want.Key() {
				t.Fatalf("binary block at %d: keyed %s, holds %s", b.off, runstore.Key(string(exp), string(hash), rep), want.Key())
			}
			if got, err := decodeRecord(version, data[b.off:b.off+b.n]); err != nil || !reflect.DeepEqual(got, want) {
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
			if walkErr == nil {
				t.Fatalf("Open: %v; the walk read the file", err)
			}
			return
		}
		defer func() { // not Close: finalizing syncs, and a sync per input is most of its cost
			a.f.Close()
			if a.log != nil {
				a.log.Close()
			}
		}()
		served, scanErr := runstore.Collect(a.Scan())
		if walkErr != nil {
			if version < latest {
				t.Fatalf("the walk failed (%v), the legacy open it is did not", walkErr)
			}
			return // a record block that does not decode: the walk's error, and a point read's (property 2)
		}
		a.mu.Lock()
		sameIndex := reflect.DeepEqual(a.order, order) && len(a.idx) == len(extents)
		for k, e := range extents {
			sameIndex = sameIndex && a.idx[k] == e
		}
		finalized := !a.dirty && version == latest
		a.mu.Unlock()
		if !sameIndex {
			if !finalized {
				t.Fatalf("Open indexed %v, the walk read %v", a.order, order)
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
