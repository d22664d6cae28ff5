package runstore

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"syscall"
	"testing"
)

const saveChildEnv = "RUNSTORE_SAVE_CHILD"

// TestSaveChild is the body TestFailedSaveKeepsBaseline runs in a child
// process: a save under a 64-byte file size limit, which fails with EFBIG
// part way through writing. The limit is process-wide, hence the child.
func TestSaveChild(t *testing.T) {
	path := os.Getenv(saveChildEnv)
	if path == "" {
		t.Skip("the child half of TestFailedSaveKeepsBaseline")
	}
	signal.Ignore(syscall.SIGXFSZ) // a write past the limit fails instead of killing the process
	var lim syscall.Rlimit
	if err := syscall.Getrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	lim.Cur = 64
	if err := syscall.Setrlimit(syscall.RLIMIT_FSIZE, &lim); err != nil {
		t.Fatal(err)
	}
	if err := summaryFor(t, map[string]float64{"lo": 30, "hi": 40}, []float64{-0.3, 0.3}).Save(path); err == nil {
		t.Fatal("a save past the file size limit succeeded")
	}
}

// TestFailedSaveKeepsBaseline: a save that fails part way through writing
// leaves the baseline it was replacing byte for byte, and no temporary
// file beside it.
func TestFailedSaveKeepsBaseline(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	if err := summaryFor(t, map[string]float64{"lo": 10, "hi": 20}, []float64{-0.1, 0, 0.1}).Save(path); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestSaveChild$")
	cmd.Env = append(os.Environ(), saveChildEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("baseline after a failed save: %d bytes, %v; want the %d it held", len(after), err, len(before))
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after a failed save: %v, %v; want only the baseline", entries, err)
	}
}
