package archivestore

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// TestRecordsIsEntriesPlusRead: one block walk behind both projections,
// through one block buffer. Over an archive whose blocks grow, shrink and
// grow again — plain and compressed, superseded keys, an unknown block
// type in between, a torn tail — Records yields, block for block, what
// Entries followed by Read yields, so nothing a decoded record keeps is
// left in the buffer the next block overwrites; and both leave the same
// Info behind.
func TestRecordsIsEntriesPlusRead(t *testing.T) {
	t.Parallel()
	path := filepath.Join(t.TempDir(), "run.arch")
	data := []byte(Magic)
	var frames []runstore.Record
	for i, width := range []int{4000, 3, 1, 9000, 0, 40, 9000, 2} {
		r := rec("e", i%5, 0, float64(i)) // rows repeat: superseded blocks
		r.Hash = hashOf(r)                // the key is the row's, whatever the padding
		r.Assignment["pad"] = strings.Repeat(string(rune('a'+i)), width)
		payload, err := encodeRecordPayload(r)
		typ := byte(blockRecord)
		if i%3 == 1 {
			typ = blockRecordZ
			payload, err = encodeRecordPayloadZ(r)
		}
		if err != nil {
			t.Fatal(err)
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
		viaRead = append(viaRead, rec)
	}
	wantInfo := r.Info()
	got, err := runstore.Collect(r.Records())
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(got, frames) || !reflect.DeepEqual(viaRead, frames) {
		t.Errorf("Records yields\n %+v\nEntries+Read\n %+v\nwritten\n %+v", got, viaRead, frames)
	}
	if info := r.Info(); info != wantInfo || !info.Torn || info.Records != len(frames) || info.Distinct != 5 {
		t.Errorf("Info after Records = %+v, after Entries %+v; want %d torn record blocks, 5 distinct", info, wantInfo, len(frames))
	}
	for range r.Records() {
		break // stopping early is not an error and leaves the reader usable
	}
	if again, err := runstore.Collect(r.Records()); err != nil || !reflect.DeepEqual(again, frames) {
		t.Errorf("a Records pass after an abandoned one: %v", err)
	}
}
