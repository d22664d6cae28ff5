package runstore

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenDir holds one clean and one torn-tail file per on-disk format
// version, written once by the build that introduced the format. Every
// later build must open them: the files are never regenerated, only
// added to when a format version is.
const goldenDir = "../../testdata/golden"

// goldenWritten is what was appended, in order, to produce the clean
// golden journals: a single append, a batch holding a non-nil empty
// assignment next to a nil one (JSON `{}` vs `null`, binary marker 1 vs
// 0), and an append superseding the first record.
func goldenWritten() []Record {
	return []Record{
		{Experiment: "golden", Row: 0, Replicate: 0, Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 1.5}},
		{Experiment: "golden", Row: 1, Replicate: 0, Assignment: map[string]string{}, Responses: nil},
		{Experiment: "golden", Row: 2, Replicate: 1, Assignment: nil, Responses: map[string]float64{}},
		{Experiment: "golden", Row: 0, Replicate: 0, Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 2.5, "rows": 10}},
	}
}

// goldenServed is the last-wins view of goldenWritten in first-appended
// order, hashes derived — what Scan and LoadRecords must decode.
func goldenServed() []Record {
	w := goldenWritten()
	out := []Record{w[3], w[1], w[2]}
	for i := range out {
		out[i].Hash = AssignmentHash(out[i].Assignment)
	}
	return out
}

// goldenStore is what the test needs of a journal, whichever
// constructor opened it.
type goldenStore interface {
	Store
	BatchAppender
	Len() int
	Torn() bool
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

func TestGoldenJournals(t *testing.T) {
	openJSON := func(path string) (goldenStore, error) {
		j, err := Open(path)
		if err != nil {
			return nil, err
		}
		return j, nil
	}
	openBinary := func(path string) (goldenStore, error) {
		j, err := OpenBinary(path)
		if err != nil {
			return nil, err
		}
		return j, nil
	}
	// The hand-edited journal: a line without a hash, a blank line, and
	// a decodable final line nobody terminated. Read-only tooling keys
	// the first record by the hash Append would have derived.
	handEdited := []Record{
		{Experiment: "golden", Row: 0, Replicate: 0, Hash: AssignmentHash(map[string]string{"f": "x"}),
			Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 1.5}},
		{Experiment: "golden", Row: 0, Replicate: 1, Hash: "00000000000000aa", Responses: map[string]float64{"ms": 3}},
	}
	for _, tc := range []struct {
		file   string
		open   func(string) (goldenStore, error)
		served []Record
		torn   bool
		// clean names the golden file that open must repair the copy
		// to and that re-appending goldenWritten must reproduce; "" for
		// the hand-edited file, which open only terminates.
		clean string
	}{
		{"journal.jsonl", openJSON, goldenServed(), false, "journal.jsonl"},
		{"journal.torn.jsonl", openJSON, goldenServed(), true, "journal.jsonl"},
		{"journal.handedited.jsonl", openJSON, handEdited, false, ""},
		{"journal.binj", openBinary, goldenServed(), false, "journal.binj"},
		{"journal.torn.binj", openBinary, goldenServed(), true, "journal.binj"},
	} {
		t.Run(tc.file, func(t *testing.T) {
			path, original := copyGolden(t, tc.file)

			// Read-only tooling first: it must not touch the file.
			got, err := LoadRecords(path)
			if err != nil {
				t.Fatalf("LoadRecords: %v", err)
			}
			if !reflect.DeepEqual(got, tc.served) {
				t.Errorf("LoadRecords decoded\n got %#v\nwant %#v", got, tc.served)
			}
			info, err := Inspect(path)
			if err != nil || info.Torn != tc.torn || info.Distinct != len(tc.served) {
				t.Errorf("Inspect = %+v, %v; want torn=%v distinct=%d", info, err, tc.torn, len(tc.served))
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, original) {
				t.Fatal("read-only tooling modified the file")
			}

			j, err := tc.open(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer j.Close()
			if j.Torn() != tc.torn {
				t.Errorf("Torn() = %v, want %v", j.Torn(), tc.torn)
			}
			if j.Len() != len(tc.served) {
				t.Errorf("Len() = %d, want %d", j.Len(), len(tc.served))
			}
			if tc.clean != "" {
				scanned, err := Collect(j.Scan())
				if err != nil || !reflect.DeepEqual(scanned, tc.served) {
					t.Errorf("Scan decoded (err %v)\n got %#v\nwant %#v", err, scanned, tc.served)
				}
			}
			want := append(append([]byte{}, original...), '\n')
			if tc.clean != "" {
				if want, err = os.ReadFile(filepath.Join(goldenDir, tc.clean)); err != nil {
					t.Fatal(err)
				}
			}
			repaired, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(repaired, want) {
				t.Fatalf("opened file holds %d byte(s), want %d (clean file %q)", len(repaired), len(want), tc.clean)
			}

			if tc.clean != "" {
				freshPath := filepath.Join(t.TempDir(), "fresh")
				fresh, err := tc.open(freshPath)
				if err != nil {
					t.Fatal(err)
				}
				w := goldenWritten()
				if err := fresh.Append(w[0]); err != nil {
					t.Fatal(err)
				}
				if err := fresh.AppendBatch(w[1:3]); err != nil {
					t.Fatal(err)
				}
				if err := fresh.Append(w[3]); err != nil {
					t.Fatal(err)
				}
				fresh.Close()
				rewritten, err := os.ReadFile(freshPath)
				if err != nil {
					t.Fatal(err)
				}
				if !bytes.Equal(rewritten, want) {
					t.Errorf("today's writer no longer reproduces %s byte for byte:\n got %q\nwant %q", tc.clean, rewritten, want)
				}
			}

			extra := Record{Experiment: "golden", Row: 9, Replicate: 0, Assignment: map[string]string{"f": "y"}, Responses: map[string]float64{"ms": 9}}
			if err := j.Append(extra); err != nil {
				t.Fatalf("append to the opened golden file: %v", err)
			}
			j.Close()
			again, err := tc.open(path)
			if err != nil {
				t.Fatalf("reopen after append: %v", err)
			}
			defer again.Close()
			if again.Len() != len(tc.served)+1 || again.Torn() {
				t.Errorf("reopened: Len %d Torn %v, want %d false", again.Len(), again.Torn(), len(tc.served)+1)
			}
			grown, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.HasPrefix(grown, want) || len(grown) <= len(want) {
				t.Error("append + reopen did not leave the original bytes as a strict prefix")
			}
		})
	}
}
