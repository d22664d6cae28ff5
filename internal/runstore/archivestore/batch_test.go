package archivestore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runstore"
)

// numbered is record i of a sequence long enough to fill index pages at
// the default interval: one row per record, in Merge's canonical order.
func numbered(i int) runstore.Record {
	return runstore.Record{Experiment: "e", Row: i, Replicate: 0,
		Assignment: map[string]string{"cell": fmt.Sprintf("c%05d", i)},
		Responses:  map[string]float64{"t": float64(i) / 4}}
}

// TestAppendBatchCrossesIndexPages: one AppendBatch that two index pages
// fall due inside writes, once the archive is closed, the bytes of the
// same records appended one by one — at an interval of 2 — and, at the
// default interval, the bytes the bulk writer behind Merge writes.
func TestAppendBatchCrossesIndexPages(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, interval int, recs []runstore.Record, batched bool) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		a, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		a.interval = interval
		// One record first, so the batch starts mid-page.
		if err := a.Append(recs[0]); err != nil {
			t.Fatal(err)
		}
		if batched {
			if err := a.AppendBatch(recs[1:]); err != nil {
				t.Fatal(err)
			}
		} else {
			for _, r := range recs[1:] {
				if err := a.Append(r); err != nil {
					t.Fatal(err)
				}
			}
		}
		if pages := len(a.pages); pages < 2 {
			t.Fatalf("%s: %d index page(s) written before Close, want the batch to cross 2", name, pages)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}

	var six []runstore.Record
	for i := 0; i < 6; i++ {
		six = append(six, numbered(i))
	}
	if batched, single := write("batched.arch", 2, six, true), write("single.arch", 2, six, false); !bytes.Equal(batched, single) {
		t.Errorf("a batch across two index pages wrote %d byte(s), the same records appended one by one %d", len(batched), len(single))
	}

	var many []runstore.Record
	for i := 0; i < 2*DefaultIndexInterval+10; i++ {
		many = append(many, numbered(i))
	}
	batched := write("many.arch", DefaultIndexInterval, many, true)
	journal := filepath.Join(dir, "many.jsonl")
	j, err := runstore.Open(journal)
	if err != nil {
		t.Fatal(err)
	}
	if err := j.AppendBatch(many); err != nil {
		t.Fatal(err)
	}
	j.Close()
	bulk := filepath.Join(dir, "bulk.arch")
	if _, err := runstore.Merge([]string{journal}, bulk); err != nil {
		t.Fatal(err)
	}
	if want, _ := os.ReadFile(bulk); !bytes.Equal(batched, want) {
		t.Errorf("a batch across two index pages wrote %d byte(s), Merge's bulk writer %d", len(batched), len(want))
	}
}

// TestTornRecordReappends crashes an unfinalized archive — one batch, two
// index pages inside it, no Close — at every byte of its last index page
// and its last record frame: Open keeps the records before the cut,
// reports the torn tail (unless the cut falls between frames), and
// appending the lost record again writes the file the crash interrupted,
// and Close the file an uninterrupted Close writes.
func TestTornRecordReappends(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "run.arch")
	var recs []runstore.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, numbered(i))
	}
	a, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	a.interval = 2 // r0 r1 [page] r2 r3 [page] r4
	if err := a.AppendBatch(recs); err != nil {
		t.Fatal(err)
	}
	crashed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Close(); err != nil {
		t.Fatal(err)
	}
	closed, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	blocks := blocksOf(crashed)
	if len(blocks) != 7 || blocks[5].typ != blockIndex || blocks[6].typ != blockRecord {
		t.Fatalf("the unfinalized file holds %d block(s), want r0 r1 page r2 r3 page r4", len(blocks))
	}
	last := recs[4]
	last.Hash = hashOf(last)
	cutPath := filepath.Join(dir, "cut.arch")
	for cut := blocks[5].off; cut < int64(len(crashed)); cut++ {
		if err := os.WriteFile(cutPath, crashed[:cut], 0o644); err != nil {
			t.Fatal(err)
		}
		b, err := Open(cutPath)
		if err != nil {
			t.Fatalf("cut at %d: %v", cut, err)
		}
		b.interval = 2
		torn := cut != blocks[5].off && cut != blocks[6].off
		if b.Torn() != torn || b.Len() != 4 {
			t.Fatalf("cut at %d: torn %v, %d record(s); want torn %v, 4", cut, b.Torn(), b.Len(), torn)
		}
		if err := b.AppendBatch([]runstore.Record{recs[4]}); err != nil {
			t.Fatalf("cut at %d: append after recovery: %v", cut, err)
		}
		if got, _ := os.ReadFile(cutPath); !bytes.Equal(got, crashed) {
			t.Fatalf("cut at %d: re-appending the lost record wrote %d byte(s), want the %d the crash interrupted", cut, len(got), len(crashed))
		}
		if got, ok := b.Lookup(last.Experiment, last.Hash, 0); !ok || !reflect.DeepEqual(got, last) {
			t.Fatalf("cut at %d: Lookup of the re-appended record = %+v, %v", cut, got, ok)
		}
		if err := b.Close(); err != nil {
			t.Fatal(err)
		}
		if got, _ := os.ReadFile(cutPath); !bytes.Equal(got, closed) {
			t.Fatalf("cut at %d: Close wrote %d byte(s), want the %d of an uninterrupted Close", cut, len(got), len(closed))
		}
	}
}

// TestRefusedBatchLeavesTheArchive: a batch whose last record the layout
// refuses — an experiment name over the index page's u16 length — after an
// index page fell due before it writes nothing, serves nothing, and leaves
// the index entries no page covers yet as they were, so Close still
// writes the file the acknowledged appends alone make.
func TestRefusedBatchLeavesTheArchive(t *testing.T) {
	dir := t.TempDir()
	var recs []runstore.Record
	for i := 0; i < 5; i++ {
		recs = append(recs, numbered(i))
	}
	huge := numbered(5)
	huge.Experiment = string(bytes.Repeat([]byte("x"), 1<<16))
	write := func(name string, refused []runstore.Record) []byte {
		t.Helper()
		path := filepath.Join(dir, name)
		a, err := Open(path)
		if err != nil {
			t.Fatal(err)
		}
		a.interval = 2
		for _, r := range recs[:3] { // r0 r1 [page] r2: one entry pending
			if err := a.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if refused != nil {
			if err := a.AppendBatch(refused); err == nil {
				t.Fatal("a batch holding an over-long experiment name was accepted")
			}
			if a.Len() != 3 {
				t.Fatalf("the refused batch left %d record(s) served, want 3", a.Len())
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	want := write("acked.arch", nil)
	// r3 fills the pending page, a page falls due before r4, and huge is
	// refused after both were laid out.
	if got := write("refused.arch", []runstore.Record{recs[3], recs[4], huge}); !bytes.Equal(got, want) {
		t.Errorf("after a refused batch Close wrote %d byte(s), want the %d of the acknowledged appends alone", len(got), len(want))
	}
}
