package archivestore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// goldenDir is the on-disk format corpus runstore's golden test reads
// too: files written once by the build that introduced their format
// version, never regenerated, only added to.
//
// The version-1 archives were written at commit 3cf9d2c (PR 24, the last
// build whose .archz writer wrote type-4 blocks), in a scratch checkout of
// that commit, by a throwaway test in this package over goldenWritten:
//
//   - archive.v1.arch: Open, Append each record, Close (type-1 blocks);
//   - archive.v1.mixed.arch: the same with SetCompress(i%2 == 1) before
//     the i-th Append (types 1 and 4 alternating);
//   - archive.v1.archz: WriteCompressed (type-4 blocks);
//   - archive.v1.torn.archz: archive.v1.archz up to its footer, then the
//     first 11 bytes of a type-4 block holding one more record — the tail
//     a crash mid-append leaves.
//
// archive.v2.archz is WriteCompressed's output at PR 25, which introduced
// version 2 (type-5 blocks).
const goldenDir = "../../../testdata/golden"

// goldenWritten is the record sequence every golden archive was written
// from — runstore's, for the golden journals: a record, a non-nil empty
// assignment next to a nil one, and a record superseding the first.
func goldenWritten() []runstore.Record {
	return []runstore.Record{
		{Experiment: "golden", Row: 0, Replicate: 0, Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 1.5}},
		{Experiment: "golden", Row: 1, Replicate: 0, Assignment: map[string]string{}, Responses: nil},
		{Experiment: "golden", Row: 2, Replicate: 1, Assignment: nil, Responses: map[string]float64{}},
		{Experiment: "golden", Row: 0, Replicate: 0, Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 2.5, "rows": 10}},
	}
}

// goldenFrames is goldenWritten as stored: every record, its hash derived.
func goldenFrames() []runstore.Record {
	w := goldenWritten()
	for i := range w {
		w[i].Hash = hashOf(w[i])
	}
	return w
}

// goldenServed is the last-wins view of goldenFrames in first-appended
// order.
func goldenServed() []runstore.Record {
	w := goldenFrames()
	return []runstore.Record{w[3], w[1], w[2]}
}

func copyGolden(t *testing.T, name string) (path string, data []byte) {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(goldenDir, name))
	if err != nil {
		t.Fatal(err)
	}
	path = filepath.Join(t.TempDir(), name)
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path, data
}

// warehouseRun is the run a warehouse refresh ingests from a copy of the
// golden file name.
func warehouseRun(t *testing.T, name string) warehouse.Run {
	t.Helper()
	_, data := copyGolden(t, name)
	root := t.TempDir()
	if err := os.WriteFile(filepath.Join(root, name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	w, err := warehouse.Open(root, warehouse.Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rs, err := w.Refresh(); err != nil || rs.Ingested != 1 {
		t.Fatalf("warehouse refresh over %s: %+v, %v", name, rs, err)
	}
	return w.Runs()[0]
}

// TestGoldenArchives reads every golden archive through every reader —
// the streaming walk (OpenReader), Inspect, runstore.ScanFile, a
// warehouse refresh, and Archive.Open on its finalized and its recovery
// path — and gets the records and Info the build that wrote the file got:
// the Info strings below are what commit 3cf9d2c printed for the
// version-1 files. Then today's writers must still write the clean files
// of their version byte for byte: the live Archive archive.v1.arch, the
// compact bulk writer archive.v2.archz.
func TestGoldenArchives(t *testing.T) {
	journal := warehouseRun(t, "journal.jsonl") // the same records, as the golden journal holds them
	if journal.Records != 3 || len(journal.Cells) != 2 {
		t.Fatalf("golden journal ingests as %+v", journal)
	}
	for _, tc := range []struct {
		file string
		torn bool
		// detail is the streaming walk's and Inspect's Info.Detail, open the
		// opened Archive's.
		detail, open string
	}{
		{"archive.v1.arch", false,
			"archive: 4 record block(s), 1 index page(s), footer ok",
			"archive: 4 record block(s), 1 index page(s), footer ok"},
		{"archive.v1.mixed.arch", false,
			"archive: 4 record block(s) (2 compressed), 1 index page(s), footer ok",
			"archive: 4 record block(s), 1 index page(s), footer ok"},
		{"archive.v1.archz", false,
			"archive: 4 record block(s) (4 compressed), 1 index page(s), footer ok",
			"archive: 4 record block(s), 1 index page(s), footer ok"},
		{"archive.v1.torn.archz", true,
			"archive: 4 record block(s) (4 compressed), 1 index page(s), TRUNCATED: no valid footer, 11 trailing byte(s) would be dropped on open",
			"archive: 4 record block(s), 1 index page(s), torn tail truncated on open; footer pending until Close"},
		{"archive.v2.archz", false,
			"archive v2: 4 record block(s) (4 binary), 1 index page(s), footer ok",
			"archive v2: 4 record block(s), 1 index page(s), footer ok"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path, original := copyGolden(t, tc.file)

			// Read-only tooling first: none of it may touch the file.
			r, err := OpenReader(path)
			if err != nil {
				t.Fatal(err)
			}
			if got, _ := fieldsPass(t, r); !reflect.DeepEqual(got, goldenFrames()) {
				t.Errorf("the walk yields\n %+v\nwant\n %+v", got, goldenFrames())
			}
			walked := runstore.Info{Records: 4, Torn: tc.torn, Detail: tc.detail}
			if info := r.Info(); info != walked {
				t.Errorf("walk Info = %+v, want %+v", info, walked)
			}
			r.Close()
			walked.Distinct = 3
			if info, err := Inspect(path); err != nil || info != walked {
				t.Errorf("Inspect = %+v, %v; want %+v", info, err, walked)
			}
			if got, err := runstore.Collect(runstore.ScanFile(path)); err != nil || !reflect.DeepEqual(got, goldenServed()) {
				t.Errorf("ScanFile = %+v, %v; want %+v", got, err, goldenServed())
			}
			run := warehouseRun(t, tc.file)
			if run.Format != "archive" || run.Records != journal.Records || run.Fingerprint != journal.Fingerprint || !reflect.DeepEqual(run.Cells, journal.Cells) {
				t.Errorf("warehouse ingests\n %+v\nwant the golden journal's records, fingerprint and cells,\n %+v", run, journal)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, original) {
				t.Fatal("read-only tooling modified the file")
			}

			// Archive.Open: the finalized path for a clean file, recovery for
			// the torn one, which Close then finalizes into the clean file.
			a, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			opened := runstore.Info{Records: 4, Distinct: 3, Torn: tc.torn, Detail: tc.open}
			if info := a.Info(); info != opened || a.Torn() != tc.torn {
				t.Errorf("opened Info = %+v (Torn() %v), want %+v", info, a.Torn(), opened)
			}
			if got, err := runstore.Collect(a.Scan()); err != nil || !reflect.DeepEqual(got, goldenServed()) {
				t.Errorf("Archive.Scan = %+v, %v; want %+v", got, err, goldenServed())
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			want := original
			if tc.torn {
				if want, err = os.ReadFile(filepath.Join(goldenDir, "archive.v1.archz")); err != nil {
					t.Fatal(err)
				}
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, want) {
				t.Errorf("open + close left %d byte(s), want %d", len(after), len(want))
			}

			// The recovery path for every file: bytes past the trailer.
			garbage := append(bytes.Clone(original), blockRecord, 0xff, 0xff)
			if err := os.WriteFile(path, garbage, 0o644); err != nil {
				t.Fatal(err)
			}
			if a, err = Open(path); err != nil {
				t.Fatal(err)
			}
			defer a.Close()
			if got, err := runstore.Collect(a.Scan()); err != nil || !a.Torn() || !reflect.DeepEqual(got, goldenServed()) {
				t.Errorf("recovered Archive.Scan = %+v, %v (torn %v); want %+v", got, err, a.Torn(), goldenServed())
			}
		})
	}

	t.Run("writers", func(t *testing.T) {
		dir := t.TempDir()
		a, err := Open(filepath.Join(dir, "live.arch"))
		if err != nil {
			t.Fatal(err)
		}
		for _, r := range goldenWritten() {
			if err := a.Append(r); err != nil {
				t.Fatal(err)
			}
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := WriteCompressed(filepath.Join(dir, "bulk.archz"), runstore.Seq(goldenWritten()), ""); err != nil {
			t.Fatal(err)
		}
		for written, golden := range map[string]string{"live.arch": "archive.v1.arch", "bulk.archz": "archive.v2.archz"} {
			got, _ := os.ReadFile(filepath.Join(dir, written))
			want, err := os.ReadFile(filepath.Join(goldenDir, golden))
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("today's writer no longer reproduces %s byte for byte:\n got %q\nwant %q", golden, got, want)
			}
		}
	})
}
