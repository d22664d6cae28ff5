package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestDesignerCommands drives sign, fractional and analyze: each prints
// its table (the paper's 2^2 worked example and a 2^(4-1) design at their
// default k among them), and each bad command line fails.
func TestDesignerCommands(t *testing.T) {
	good := []struct {
		args []string
		want string // the whole output, or "" to only run the command
	}{
		{[]string{"sign", "-Ddesign.k=3"}, ""},
		{[]string{"fractional", "-Ddesign.k=7", "-Ddesign.generators=D=AB,E=AC,F=BC,G=ABC"}, ""},
		{[]string{"sign"}, "run\tI\tA\tB\tAB\n1\t+1\t-1\t-1\t+1\n2\t+1\t-1\t+1\t-1\n3\t+1\t+1\t-1\t-1\n4\t+1\t+1\t+1\t+1\n"},
		{[]string{"analyze", "-Ddesign.k=2", "-Ddesign.responses=15,25,45,75"},
			"y = 40 + 20*xA + 10*xB + 5*xA*xB\neffect\tvariation explained (%)\nqA\t76.2\nqB\t19.0\nqAB\t4.8\n"},
		{[]string{"fractional", "-Ddesign.generators=D=ABC"}, `2^(4-1) design, 8 runs, resolution 4

2^(k-p) fractional factorial design: 4 factors, 8 runs x 1 replicates
run	A	B	C	D
1	-1	-1	-1	-1
2	-1	-1	+1	+1
3	-1	+1	-1	+1
4	-1	+1	+1	-1
5	+1	-1	-1	+1
6	+1	-1	+1	-1
7	+1	+1	-1	-1
8	+1	+1	+1	+1

confoundings:
I = ABCD
A = BCD
B = ACD
C = ABD
D = ABC
`},
	}
	for _, c := range good {
		var out bytes.Buffer
		if err := runW(&out, c.args); err != nil {
			t.Errorf("%v: %v", c.args, err)
		} else if c.want != "" && out.String() != c.want {
			t.Errorf("%v printed\n%s\nwant\n%s", c.args, out.String(), c.want)
		}
	}
	bad := []struct {
		args []string
		want string
	}{
		{[]string{"sign", "-Ddesign.k=0"}, "need >= 1"},
		{[]string{"sign", "-Ddesign.k=25"}, "need <= 20"},
		{[]string{"sign", "extra"}, "usage: perfeval sign"},
		{[]string{"fractional", "-Ddesign.k=4"}, "needs -Ddesign.generators"},
		{[]string{"fractional", "-Ddesign.k=4", "-Ddesign.generators=garbage"}, "generator"},
		{[]string{"fractional", "-Ddesign.k=4", "-Ddesign.generators=A=BC"}, "base"},
		{[]string{"analyze", "-Ddesign.k=2", "-Ddesign.responses=1,2"}, "2 responses for 4 runs"},
		{[]string{"analyze", "-Ddesign.k=2", "-Ddesign.responses=1,2,3,notanum"}, "response 4"},
		{[]string{"analyze", "-Ddesign.k=2", "-Ddesign.responses=1,2,3,NaN"}, "run 4 has a non-finite response"},
		{[]string{"analyze", "-Ddesign.generators=D=ABC", "-Ddesign.responses=1,2,3,4"}, "unknown property -Ddesign.generators"},
	}
	for _, c := range bad {
		var out bytes.Buffer
		if err := runW(&out, c.args); err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v = %v, want an error containing %q", c.args, err, c.want)
		}
	}
}

func TestDbgen(t *testing.T) {
	dir := t.TempDir()
	var out bytes.Buffer
	if err := runW(&out, []string{"dbgen", "-Ddbgen.sf=0.02", "-Ddbgen.seed=7", "-Ddbgen.out=" + dir, "-Ddbgen.tables=region,nation"}); err != nil {
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
		if !strings.Contains(out.String(), filepath.Join(dir, name)) {
			t.Errorf("output does not name %s:\n%s", name, out.String())
		}
	}
	// Unrequested tables are not written.
	if _, err := os.Stat(filepath.Join(dir, "lineitem.csv")); !os.IsNotExist(err) {
		t.Error("lineitem.csv should not exist")
	}
	// Determinism: same properties, same bytes.
	dir2 := t.TempDir()
	if err := runW(&out, []string{"dbgen", "-Ddbgen.sf=0.02", "-Ddbgen.seed=7", "-Ddbgen.out=" + dir2, "-Ddbgen.tables=region"}); err != nil {
		t.Fatal(err)
	}
	a, _ := os.ReadFile(filepath.Join(dir, "region.csv"))
	b, _ := os.ReadFile(filepath.Join(dir2, "region.csv"))
	if string(a) != string(b) {
		t.Error("dbgen output not deterministic")
	}
	// Errors.
	if err := runW(&out, []string{"dbgen", "-Ddbgen.sf=0"}); err == nil {
		t.Error("sf=0 should error")
	}
	if err := runW(&out, []string{"dbgen", "-Ddbgen.badflag=1"}); err == nil {
		t.Error("bad property should error")
	}
	// A misspelt table name fails, naming every unknown table, and
	// writes nothing.
	dir3 := t.TempDir()
	err := runW(&out, []string{"dbgen", "-Ddbgen.sf=0.01", "-Ddbgen.out=" + dir3, "-Ddbgen.tables=bogus,region,regoin"})
	if err == nil || !strings.Contains(err.Error(), `"bogus"`) || !strings.Contains(err.Error(), `"regoin"`) {
		t.Errorf("misspelt tables: err = %v, want both names", err)
	}
	if files, _ := os.ReadDir(dir3); len(files) != 0 {
		t.Errorf("misspelt tables wrote %d file(s)", len(files))
	}
}
