package archivestore

import (
	"os"
	"path/filepath"
	"testing"

	"repro/internal/runstore"
	"repro/internal/runstore/storetest"
)

// TestArchivestoreConformance runs the shared Store contract suite
// against the block-indexed archive backend — the same assertions the
// journal and the shard store pass, crash-recovery equivalence included.
func TestArchivestoreConformance(t *testing.T) {
	storetest.Run(t, storetest.Backend{
		Name: "archivestore",
		Open: func(t *testing.T, dir string) runstore.Store {
			a, err := OpenDir(dir, "e")
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		Tear: func(t *testing.T, dir string) { tearArchive(t, filepath.Join(dir, "e"+Ext)) },
	})
}

// TestArchivestoreCompressedConformance runs the same contract suite over
// an archive the bulk writer began: the file runstore.Merge writes for an
// .archz destination, opened by the live Archive on its finalized path,
// whose first append cuts the footer off (framelog.OpenAt) and whose
// Close writes it again. The Store semantics must not depend on which
// writer began the file.
func TestArchivestoreCompressedConformance(t *testing.T) {
	storetest.Run(t, storetest.Backend{
		Name: "archivestore-compressed",
		Open: func(t *testing.T, dir string) runstore.Store {
			path := filepath.Join(dir, "e"+ExtZ)
			if _, err := os.Stat(path); os.IsNotExist(err) {
				empty := filepath.Join(dir, "empty.jsonl")
				if err := os.WriteFile(empty, nil, 0o644); err != nil {
					t.Fatal(err)
				}
				if _, err := runstore.Merge([]string{empty}, path); err != nil {
					t.Fatal(err)
				}
				if err := os.Remove(empty); err != nil {
					t.Fatal(err)
				}
			}
			a, err := Open(path)
			if err != nil {
				t.Fatal(err)
			}
			return a
		},
		Tear: func(t *testing.T, dir string) { tearArchive(t, filepath.Join(dir, "e"+ExtZ)) },
	})
}

// tearArchive simulates a crash mid-append: a half-written block after
// the finalized tail also invalidates the trailer, so the reopen takes
// the recovery-scan path.
func tearArchive(t *testing.T, path string) {
	t.Helper()
	f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	if _, err := f.Write([]byte{1, 0xEF, 0xBE, 0xAD, 0xDE, 0x01}); err != nil {
		t.Fatal(err)
	}
}
