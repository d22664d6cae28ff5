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
// archive whose blocks grow, shrink and grow again — JSON, legacy
// compressed and binary, superseded keys, an unknown block type in
// between, a torn tail — the
// field pass yields, block for block, the fields of what Entries followed
// by Read yields, so nothing a step hands out is read from a buffer the
// next block has overwritten; and both leave the same Info behind, its
// Distinct for Inspect to count.
func TestRecordsIsEntriesPlusRead(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "run.arch")
	data := []byte(MagicV2)
	var frames []runstore.Record
	for i, width := range []int{4000, 3, 1, 9000, 0, 40, 9000, 2} {
		r := rec("e", i%5, 0, float64(i)) // rows repeat: superseded blocks
		r.Hash = hashOf(r)                // the key is the row's, whatever the padding
		r.Assignment["pad"] = strings.Repeat(string(rune('a'+i)), width)
		typ, payload, err := appendRecordPayload(nil, 1+i%3%2, r) // JSON, binary, then
		if err != nil {
			t.Fatal(err)
		}
		if i%3 == 2 {
			typ, payload = blockRecordZ, legacyPayloadZ(t, r) // compressed
		}
		data = appendBlock(data, typ, payload)
		if i == 4 {
			data = appendBlock(data, 42, []byte(strings.Repeat("future auxiliary data ", 300)))
		}
		frames = append(frames, r)
	}
	data = append(data, appendBlock(nil, blockRecord, []byte("torn"))[:7]...)
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
	if !reflect.DeepEqual(got, frames) || !reflect.DeepEqual(viaRead, frames) || !reflect.DeepEqual(fps, entryFps) {
		t.Errorf("Fields yields\n %+v\nEntries+Read\n %+v\nwritten\n %+v", got, viaRead, frames)
	}
	if info := r.Info(); info != wantInfo || !info.Torn || info.Records != len(frames) || info.Distinct != 0 {
		t.Errorf("Info after Fields = %+v, after Entries %+v; want %d torn record blocks, distinct uncounted", info, wantInfo, len(frames))
	}
	if info, err := Inspect(path); err != nil || info.Records != len(frames) || info.Distinct != 5 || info.Detail != wantInfo.Detail {
		t.Errorf("Inspect = %+v, %v; want %d record blocks, 5 distinct, the walk's detail", info, err, len(frames))
	}
	for range r.Fields() {
		break // stopping early is not an error and leaves the reader usable
	}
	if again, _ := fieldsPass(t, r); !reflect.DeepEqual(again, frames) {
		t.Errorf("a Fields pass after an abandoned one differs")
	}
}
