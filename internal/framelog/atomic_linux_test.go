package framelog_test

import (
	"bytes"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strings"
	"syscall"
	"testing"

	"repro/internal/framelog"
)

const atomicChildEnv = "FRAMELOG_ATOMIC_WRITE_CHILD"

// TestAtomicWriteChild is the body TestFailedAtomicWriteKeepsOld runs in
// a child process: a write under a 64-byte file size limit, which fails
// with EFBIG part way through. The limit is process-wide, hence the child.
func TestAtomicWriteChild(t *testing.T) {
	path := os.Getenv(atomicChildEnv)
	if path == "" {
		t.Skip("the child half of TestFailedAtomicWriteKeepsOld")
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
	if err := framelog.AtomicWrite(path, path, writeString(strings.Repeat("new record\n", 100))); err == nil {
		t.Fatal("a write past the file size limit succeeded")
	}
}

// TestFailedAtomicWriteKeepsOld: a write that fails part way through
// leaves the file it was replacing byte for byte, and no temporary file
// beside it.
func TestFailedAtomicWriteKeepsOld(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "store.jsonl")
	if err := framelog.AtomicWrite(path, path, writeString("old record\n")); err != nil {
		t.Fatal(err)
	}
	before, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(os.Args[0], "-test.run=^TestAtomicWriteChild$")
	cmd.Env = append(os.Environ(), atomicChildEnv+"="+path)
	if out, err := cmd.CombinedOutput(); err != nil {
		t.Fatalf("child: %v\n%s", err, out)
	}
	if after, err := os.ReadFile(path); err != nil || !bytes.Equal(after, before) {
		t.Fatalf("file after a failed write: %d bytes, %v; want the %d it held", len(after), err, len(before))
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory after a failed write: %v, %v; want only the file", entries, err)
	}
}
