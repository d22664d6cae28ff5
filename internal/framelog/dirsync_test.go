package framelog_test

import (
	"path/filepath"
	"slices"
	"testing"

	"repro/internal/framelog"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
)

// TestDirectorySyncedOnCreateAndRenameOnly covers the places a file's
// name comes into being — framelog.Open creating a log, and AtomicWrite
// behind Merge and Compact and behind the archive's bulk writer: the
// parent directory is synced exactly once there, and never when the file
// is appended to, read, or reopened.
func TestDirectorySyncedOnCreateAndRenameOnly(t *testing.T) {
	rec := func(rep int) runstore.Record {
		return runstore.Record{Experiment: "e", Replicate: rep,
			Assignment: map[string]string{"x": "a"}, Responses: map[string]float64{"ms": float64(rep)}}
	}
	src := filepath.Join(t.TempDir(), "src.jsonl")
	j, err := runstore.Open(src)
	if err != nil {
		t.Fatal(err)
	}
	for rep := range 3 {
		if err := j.Append(rec(rep)); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	// openLog creates or reopens a bare log, commits one record, closes.
	openLog := func(fr framelog.Framing) func(t *testing.T, path string) {
		return func(t *testing.T, path string) {
			l, err := framelog.Open(path, fr, func([]byte, int64, int64) error { return nil })
			if err != nil {
				t.Fatal(err)
			}
			if err := l.Commit(fr.Seal(append(fr.Reserve(nil), "{}"...), 0), nil); err != nil {
				t.Fatal(err)
			}
			if err := l.Close(); err != nil {
				t.Fatal(err)
			}
		}
	}
	lines, frames := openLog(framelog.Lines), openLog(framelog.Frames("test log", "TESTLOG\n", 1<<10))
	cases := []struct {
		name   string
		file   string
		create func(t *testing.T, path string) // brings path into being: one sync
		reuse  func(t *testing.T, path string) // appends, reads or reopens it: none
	}{
		{"line log", "log.jsonl", lines, lines},
		{"frame log", "log.bin", frames, frames},
		{"merge (atomicWrite)", "merged.jsonl",
			func(t *testing.T, path string) {
				if _, err := runstore.Merge([]string{src}, path); err != nil {
					t.Fatal(err)
				}
			},
			func(t *testing.T, path string) {
				if recs, err := runstore.LoadRecords(path); err != nil || len(recs) != 3 {
					t.Fatalf("reading the merge back: %d record(s), %v", len(recs), err)
				}
			}},
		{"archive write", "run.arch",
			func(t *testing.T, path string) {
				if err := archivestore.Write(path, runstore.ScanFile(src), src); err != nil {
					t.Fatal(err)
				}
			},
			func(t *testing.T, path string) {
				if recs, err := runstore.LoadRecords(path); err != nil || len(recs) != 3 {
					t.Fatalf("reading the archive back: %d record(s), %v", len(recs), err)
				}
			}},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, c.file)
			var synced []string
			defer framelog.SetDirSynced(func(d string) { synced = append(synced, d) })()

			c.create(t, path)
			if !slices.Equal(synced, []string{dir}) {
				t.Fatalf("creating %s synced %q, want its directory %q exactly once", c.file, synced, dir)
			}
			synced = nil
			c.reuse(t, path)
			if len(synced) != 0 {
				t.Fatalf("reusing %s synced %q, want no directory sync", c.file, synced)
			}
		})
	}
}
