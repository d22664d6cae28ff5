package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestDbgen(t *testing.T) {
	dir := t.TempDir()
	if err := run([]string{"-sf", "0.02", "-seed", "7", "-out", dir, "-tables", "region,nation"}); err != nil {
		t.Fatal(err)
	}
	for _, name := range []string{"region.csv", "nation.csv"} {
		data, err := os.ReadFile(filepath.Join(dir, name))
		if err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		if len(data) == 0 {
			t.Errorf("%s is empty", name)
		}
	}
	// Unrequested tables are not written.
	if _, err := os.Stat(filepath.Join(dir, "lineitem.csv")); !os.IsNotExist(err) {
		t.Error("lineitem.csv should not exist")
	}
	// Determinism: same flags, same bytes.
	dir2 := t.TempDir()
	if err := run([]string{"-sf", "0.02", "-seed", "7", "-out", dir2, "-tables", "region"}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "region.csv"))
	b, _ := os.ReadFile(filepath.Join(dir2, "region.csv"))
	if string(a) != string(b) {
		t.Error("dbgen output not deterministic")
	}
	// Errors.
	if err := run([]string{"-sf", "0"}); err == nil {
		t.Error("sf=0 should error")
	}
	if err := run([]string{"-badflag"}); err == nil {
		t.Error("bad flag should error")
	}
	// A misspelt table name fails, naming every unknown table, and
	// writes nothing.
	dir3 := t.TempDir()
	err := run([]string{"-sf", "0.01", "-out", dir3, "-tables", "bogus,region,regoin"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), `"regoin"`) {
		t.Errorf("misspelt tables: err = %v, want both names", err)
	}
	if files, _ := os.ReadDir(dir3); len(files) != 0 {
		t.Errorf("misspelt tables wrote %d file(s)", len(files))
	}
}
