package runstore_test

import (
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/runstore/storetest"
)

// TestBinaryJournalConformance runs the shared Store contract suite
// against the one writable binary store, the archive, kept as a binary
// journal: never finalized. Each Close is a crash right after
// the last acknowledged commit, so every reopen replays the file frame by
// frame — the recovery path a killed `Store: archive` run resumes
// through — where archivestore's own conformance runs reopen a finalized
// file from its index.
func TestBinaryJournalConformance(t *testing.T) {
	path := func(dir string) string { return filepath.Join(dir, "e"+archivestore.Ext) }
	storetest.Run(t, storetest.Backend{
		Name: "binary",
		Open: func(t *testing.T, dir string) runstore.Store {
			st, statErr := os.Stat(path(dir))
			a, err := archivestore.Open(path(dir))
			if err != nil {
				t.Fatal(err)
			}
			if statErr == nil && st.Size() > int64(len(archivestore.Magic)) && strings.HasSuffix(a.Info().Detail, "footer ok") {
				t.Fatalf("reopened %s from its footer; want the frame-by-frame replay", path(dir))
			}
			return unfinalized{a, path(dir)}
		},
		Tear: func(t *testing.T, dir string) {
			// A crash mid-append leaves a prefix of a frame: here a full
			// header claiming a 64-byte payload with only 3 payload bytes
			// behind it.
			f, err := os.OpenFile(path(dir), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.Write([]byte{64, 0, 0, 0, 0xde, 0xad, 0xbe, 0xef, 1, 2, 3}); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// unfinalized is an archive whose Close leaves the file as a crash after
// the last commit would: the archive closes, and the file loses the
// index page, footer and trailer Close appended.
type unfinalized struct {
	*archivestore.Archive
	path string
}

func (u unfinalized) Close() error {
	st, err := os.Stat(u.path)
	if err != nil {
		return err
	}
	if err := u.Archive.Close(); err != nil {
		return err
	}
	return os.Truncate(u.path, st.Size())
}
