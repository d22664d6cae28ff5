package archivestore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// fieldsPass consumes r's field pass, copying the record out of the view
// at every step.
func fieldsPass(t *testing.T, r runstore.SourceReader) (recs []runstore.Record, fps []uint64) {
	t.Helper()
	for f, err := range r.Fields() {
		if err != nil {
			t.Fatal(err)
		}
		recs, fps = append(recs, f.Record()), append(fps, f.Fingerprint())
	}
	return recs, fps
}

// TestRecordsIsEntriesPlusRead: one block walk behind both projections,
// through one block buffer, one inflate buffer and one view. Over an
// archive whose blocks grow, shrink and grow again — a legacy one of JSON,
// compressed and binary blocks, and a version-3 one of frames — with
// superseded keys, an unknown block type in between and a torn tail, the
// field pass yields, block for block, the fields of what Entries followed
// by Read yields, so nothing a step hands out is read from a buffer the
// next block has overwritten; and both leave the same Info behind, its
// Distinct for Inspect to count.
func TestRecordsIsEntriesPlusRead(t *testing.T) {
	t.Parallel()
	for _, magic := range []string{versions[2].magic, Magic} {
		path := filepath.Join(t.TempDir(), "run.arch")
		legacy := magic != Magic
		data := []byte(magic)
		add := func(typ byte, payload []byte) {
			if legacy {
				data = appendLegacyBlock(data, typ, payload)
			} else {
				data = appendFrame(data, typ, payload)
			}
		}
		var written []runstore.Record
		for i, width := range []int{4000, 3, 1, 9000, 0, 40, 9000, 2} {
			r := rec("e", i%5, 0, float64(i)) // rows repeat: superseded blocks
			r.Hash = hashOf(r)                // the key is the row's, whatever the padding
			r.Assignment["pad"] = strings.Repeat(string(rune('a'+i)), width)
			switch {
			case !legacy || i%3 == 1:
				add(blockRecord, runstore.AppendBinary(nil, r))
			case i%3 == 0:
				add(blockRecordJSON, legacyPayload(t, blockRecordJSON, r))
			default:
				add(blockRecordZ, legacyPayload(t, blockRecordZ, r))
			}
			if i == 4 {
				add(42, []byte(strings.Repeat("future auxiliary data ", 300)))
			}
			written = append(written, r)
		}
		data = append(data, appendFrame(nil, blockRecord, []byte("torn"))[:7]...)
		if err := os.WriteFile(path, data, 0o644); err != nil {
			t.Fatal(err)
		}

		r, err := runstore.OpenSource(path)
		if err != nil {
			t.Fatal(err)
		}
		defer r.Close()
		var viaRead []runstore.Record
		var entryFps []uint64
		for e, err := range r.Entries() {
			if err != nil {
				t.Fatal(err)
			}
			rec, err := r.Read(e.Ext)
			if err != nil {
				t.Fatal(err)
			}
			if e.Key() != rec.Key() || e.Fp != runstore.Fingerprint(rec) || e.Row != rec.Row {
				t.Fatalf("entry %+v does not describe the record at its extent, %+v", e, rec)
			}
			viaRead, entryFps = append(viaRead, rec), append(entryFps, e.Fp)
		}
		wantInfo := r.Info()
		got, fps := fieldsPass(t, r)
		if !reflect.DeepEqual(got, written) || !reflect.DeepEqual(viaRead, written) || !reflect.DeepEqual(fps, entryFps) {
			t.Errorf("%s: Fields yields\n %+v\nEntries+Read\n %+v\nwritten\n %+v", magic, got, viaRead, written)
		}
		if info := r.Info(); info != wantInfo || !info.Torn || info.Records != len(written) || info.Distinct != 0 {
			t.Errorf("%s: Info after Fields = %+v, after Entries %+v; want %d torn record blocks, distinct uncounted", magic, info, wantInfo, len(written))
		}
		if info, err := runstore.Inspect(path); err != nil || info.Records != len(written) || info.Distinct != 5 || info.Detail != wantInfo.Detail {
			t.Errorf("%s: Inspect = %+v, %v; want %d record blocks, 5 distinct, the walk's detail", magic, info, err, len(written))
		}
		for range r.Fields() {
			break // stopping early is not an error and leaves the reader usable
		}
		if again, _ := fieldsPass(t, r); !reflect.DeepEqual(again, written) {
			t.Errorf("%s: a Fields pass after an abandoned one differs", magic)
		}
	}
}
