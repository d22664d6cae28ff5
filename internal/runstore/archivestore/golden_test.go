package archivestore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// goldenDir is the on-disk format corpus runstore's golden test reads
// too: files written once by the build that introduced their format
// version, never regenerated, only added to (testdata/golden/SHA256SUMS
// pins their bytes; `make golden-check` verifies them).
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
// version 2 (type-5 blocks). archive.v3.arch is Open, Append each record,
// Close at the build that made the archive a frame log (version 3).
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
// the walk's Info strings below are what commit 3cf9d2c printed for the
// version-1 files. A legacy (version 1 or 2) file is read-only: Append
// fails, naming the upgrade, and Close leaves it as it was, torn tail
// included. Then today's writers — the live Archive, appending one record
// at a time or the whole sequence as one batch, and the bulk writer — must
// all still write archive.v3.arch byte for byte.
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
			"archive: 4 record block(s), 1 index page(s), no valid footer: read-only, left as found"},
		{"archive.v2.archz", false,
			"archive v2: 4 record block(s) (4 binary), 1 index page(s), footer ok",
			"archive v2: 4 record block(s), 1 index page(s), footer ok"},
		{"archive.v3.arch", false,
			"archive v3: 4 record block(s), 1 index page(s), footer ok",
			"archive v3: 4 record block(s), 1 index page(s), footer ok"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path, original := copyGolden(t, tc.file)
			legacy := versionOf(original[:len(Magic)]) < latest

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
			if info, err := runstore.Inspect(path); err != nil || info != walked {
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

			// Archive.Open: the finalized path for a clean file, the read-only
			// walk for a legacy torn one. Open + Close leaves every file as it
			// was; an Append to a legacy file fails and changes nothing.
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
			if legacy {
				if err := a.Append(rec("golden", 5, 0, 5)); err == nil || !strings.Contains(err.Error(), "perfeval merge NEW.arch "+path) {
					t.Errorf("Append to a legacy archive = %v, want a refusal naming the upgrade", err)
				}
			}
			if err := a.Close(); err != nil {
				t.Fatal(err)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, original) {
				t.Errorf("open + close left %d byte(s), want the %d it found", len(after), len(original))
			}

			// The recovery path for every file: bytes past the trailer.
			garbage := append(bytes.Clone(original), blockRecordJSON, 0xff, 0xff)
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
		if a, err = Open(filepath.Join(dir, "batched.arch")); err != nil {
			t.Fatal(err)
		}
		if err := a.AppendBatch(goldenWritten()); err != nil {
			t.Fatal(err)
		}
		if err := a.Close(); err != nil {
			t.Fatal(err)
		}
		if err := Write(filepath.Join(dir, "bulk.arch"), runstore.Seq(goldenWritten()), ""); err != nil {
			t.Fatal(err)
		}
		want, err := os.ReadFile(filepath.Join(goldenDir, "archive.v3.arch"))
		if err != nil {
			t.Fatal(err)
		}
		for _, written := range []string{"live.arch", "batched.arch", "bulk.arch"} {
			if got, _ := os.ReadFile(filepath.Join(dir, written)); !bytes.Equal(got, want) {
				t.Errorf("%s no longer reproduces archive.v3.arch byte for byte:\n got %q\nwant %q", written, got, want)
			}
		}
	})
}
