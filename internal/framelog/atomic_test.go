package framelog_test

import (
	"bufio"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/framelog"
)

// writeString is an AtomicWrite emit that writes s.
func writeString(s string) func(*bufio.Writer) error {
	return func(w *bufio.Writer) error {
		_, err := w.WriteString(s)
		return err
	}
}

// TestAtomicWriteReplacesWhole: a write over an existing file replaces it
// whole, keeps its file mode, and leaves no temporary file beside it.
func TestAtomicWriteReplacesWhole(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	if err := framelog.AtomicWrite(path, path, writeString("first version, longer than the second\n")); err != nil {
		t.Fatal(err)
	}
	if err := os.Chmod(path, 0o600); err != nil {
		t.Fatal(err)
	}
	if err := framelog.AtomicWrite(path, path, writeString("second\n")); err != nil {
		t.Fatal(err)
	}
	if st, err := os.Stat(path); err != nil || st.Mode().Perm() != 0o600 {
		t.Fatalf("file after a write over it: %v, %v; want mode 0600 kept", st.Mode(), err)
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Errorf("directory holds %d entries after the write, want only the file: %v", len(entries), entries)
	}
	if got, err := os.ReadFile(path); err != nil || string(got) != "second\n" {
		t.Fatalf("file after the write = %q, %v; want the second version", got, err)
	}
}
