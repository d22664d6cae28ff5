package warehouse

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/runstore"
)

// goldenRuns is what was Put, in order, to produce the golden index
// (testdata/golden, written once by the build that introduced the
// format): two runs, a Put superseding the first, and a retention
// tombstone; the cells hold a nil assignment next to an empty one.
func goldenRuns() []Run {
	a := sampleRun("a.jsonl", 10)
	b := sampleRun("sub/b.binj", 20)
	b.Format = "binary"
	b.Cells = append(b.Cells,
		Cell{Experiment: "e", Hash: "cbf29ce484222325", Assignment: map[string]string{}, Response: "ms", N: 1, Mean: 2},
		Cell{Experiment: "e2", Hash: "cbf29ce484222325", Assignment: nil, Response: "rows", N: 2, Mean: 4, Variance: 2})
	a2 := a
	a2.Records, a2.ModTimeNS, a2.Size = 7, 30, 230
	tomb := Run{Path: "old.arch", Size: 64, ModTimeNS: 5, IngestTimeNS: 6, Fingerprint: 7, Format: "archive", Records: 2, Pruned: true}
	return []Run{a, b, a2, tomb}
}

func TestGoldenIndex(t *testing.T) {
	const goldenDir = "../../testdata/golden"
	clean, err := os.ReadFile(filepath.Join(goldenDir, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	put := goldenRuns()
	served := map[string]Run{put[1].Path: put[1], put[2].Path: put[2], put[3].Path: put[3]}

	// Today's writer reproduces the clean file byte for byte.
	rewritten := []byte(IndexMagic)
	for _, r := range put {
		frame, err := encodeIndexFrame(r)
		if err != nil {
			t.Fatal(err)
		}
		rewritten = append(rewritten, frame...)
	}
	if !bytes.Equal(rewritten, clean) {
		t.Errorf("today's writer no longer reproduces %s byte for byte:\n got %q\nwant %q", IndexFile, rewritten, clean)
	}

	for _, tc := range []struct {
		file string
		torn bool
	}{
		{IndexFile, false},
		{"warehouse.torn.idx", true},
	} {
		t.Run(tc.file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(goldenDir, tc.file))
			if err != nil {
				t.Fatal(err)
			}
			runs, torn, err := readFrames(data)
			if err != nil || torn != tc.torn {
				t.Fatalf("readFrames: torn=%v err=%v, want torn=%v", torn, err, tc.torn)
			}
			if !reflect.DeepEqual(runs, served) {
				t.Errorf("decoded\n got %+v\nwant %+v", runs, served)
			}

			root := t.TempDir()
			path := filepath.Join(root, IndexFile)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if n, pruned, torn, err := InspectIndex(path); err != nil || n != 3 || pruned != 1 || torn != tc.torn {
				t.Errorf("InspectIndex = (%d, %d, %v, %v), want (3, 1, %v, nil)", n, pruned, torn, err, tc.torn)
			}
			if after, _ := os.ReadFile(path); !bytes.Equal(after, data) {
				t.Fatal("InspectIndex modified the file")
			}

			// Open repairs a torn tail down to the clean file's bytes and
			// leaves a clean file alone.
			w := openTest(t, root)
			if live := w.Runs(); len(live) != 2 || !reflect.DeepEqual(live[0], put[1]) || !reflect.DeepEqual(live[1], put[2]) {
				t.Errorf("live runs = %+v, want b then the superseding a", live)
			}
			if repaired, _ := os.ReadFile(path); !bytes.Equal(repaired, clean) {
				t.Fatalf("opened index holds %d byte(s), want the clean file's %d", len(repaired), len(clean))
			}

			// An ingest appends; the golden bytes stay a strict prefix.
			writeJournal(t, filepath.Join(root, "new.jsonl"), []runstore.Record{
				mkRec("e", map[string]string{"f": "x"}, 0, map[string]float64{"ms": 1}),
			}, baseTime)
			if rs, err := w.Refresh(); err != nil || rs.Ingested != 1 {
				t.Fatalf("Refresh = %+v, %v; want one ingest", rs, err)
			}
			w.Close()
			if n, pruned, torn, err := InspectIndex(path); err != nil || n != 4 || pruned != 1 || torn {
				t.Errorf("after append InspectIndex = (%d, %d, %v, %v), want (4, 1, false, nil)", n, pruned, torn, err)
			}
			if grown, _ := os.ReadFile(path); !bytes.HasPrefix(grown, clean) || len(grown) <= len(clean) {
				t.Error("append + reopen did not leave the original bytes as a strict prefix")
			}
		})
	}
}
