package design

import (
	"math"
	"strings"
	"testing"
)

func approx(t *testing.T, got, want, tol float64, msg string) {
	t.Helper()
	if math.Abs(got-want) > tol {
		t.Errorf("%s: got %v, want %v", msg, got, want)
	}
}

func TestNewFactorValidation(t *testing.T) {
	if _, err := NewFactor("", "a", "b"); err == nil {
		t.Error("empty name should error")
	}
	if _, err := NewFactor("x", "a"); err == nil {
		t.Error("single level should error")
	}
	if _, err := NewFactor("x", "a", "a"); err == nil {
		t.Error("duplicate level should error")
	}
	f, err := NewFactor("cpu", "6800", "Z80", "8086")
	if err != nil {
		t.Fatal(err)
	}
	if f.TwoLevel() {
		t.Error("3-level factor reported as two-level")
	}
}

func TestCoded(t *testing.T) {
	f := MustFactor("mem", "4MB", "16MB")
	lo, err := f.Coded(0)
	if err != nil || lo != -1 {
		t.Errorf("coded(0) = %v, %v", lo, err)
	}
	hi, err := f.Coded(1)
	if err != nil || hi != 1 {
		t.Errorf("coded(1) = %v, %v", hi, err)
	}
	if _, err := f.Coded(2); err == nil {
		t.Error("coded(2) should error")
	}
	f3 := MustFactor("cpu", "a", "b", "c")
	if _, err := f3.Coded(0); err == nil {
		t.Error("coded on 3-level factor should error")
	}
}

func TestSimpleDesignSize(t *testing.T) {
	// Paper: n = 1 + sum(ni - 1).
	factors := []Factor{
		MustFactor("f1", "a", "b", "c"),      // 3 levels
		MustFactor("f2", "x", "y"),           // 2 levels
		MustFactor("f3", "p", "q", "r", "s"), // 4 levels
	}
	d, err := Simple(factors)
	if err != nil {
		t.Fatal(err)
	}
	want := 1 + (3 - 1) + (2 - 1) + (4 - 1)
	if d.NumRuns() != want {
		t.Errorf("runs = %d, want %d", d.NumRuns(), want)
	}
	// First run is the all-base configuration.
	a, err := d.Assignment(0)
	if err != nil {
		t.Fatal(err)
	}
	if a["f1"] != "a" || a["f2"] != "x" || a["f3"] != "p" {
		t.Errorf("base assignment = %v", a)
	}
	// Every non-base run differs from base in exactly one factor.
	for r := 1; r < d.NumRuns(); r++ {
		diff := 0
		for f := range factors {
			if d.Rows[r][f] != 0 {
				diff++
			}
		}
		if diff != 1 {
			t.Errorf("run %d differs from base in %d factors, want 1", r, diff)
		}
	}
}

func TestFullFactorialSize(t *testing.T) {
	factors := []Factor{
		MustFactor("f1", "a", "b", "c"),
		MustFactor("f2", "x", "y"),
	}
	d, err := FullFactorial(factors)
	if err != nil {
		t.Fatal(err)
	}
	if d.NumRuns() != 6 {
		t.Errorf("runs = %d, want 6", d.NumRuns())
	}
	// All rows distinct.
	seen := map[string]bool{}
	for r := range d.Rows {
		a, _ := d.Assignment(r)
		s := a.String()
		if seen[s] {
			t.Errorf("duplicate run %s", s)
		}
		seen[s] = true
	}
}

func TestFullFactorialTooLarge(t *testing.T) {
	var factors []Factor
	for i := 0; i < 23; i++ {
		factors = append(factors, MustFactor(string(rune('a'+i)), "0", "1"))
	}
	if _, err := FullFactorial(factors); err == nil {
		t.Error("oversized design should error")
	}
}

func TestDesignValidation(t *testing.T) {
	if _, err := Simple(nil); err == nil {
		t.Error("no factors should error")
	}
	dup := []Factor{MustFactor("x", "a", "b"), MustFactor("x", "c", "d")}
	if _, err := FullFactorial(dup); err == nil {
		t.Error("duplicate factor names should error")
	}
	three := []Factor{MustFactor("x", "a", "b", "c")}
	if _, err := TwoLevelFull(three); err == nil {
		t.Error("2^k with 3-level factor should error")
	}
}

func TestDesignStringAndAssignmentErrors(t *testing.T) {
	d, err := TwoLevelFull([]Factor{MustFactor("A", "-", "+")})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(d.String(), "2^k") {
		t.Errorf("String() = %q", d.String())
	}
	if _, err := d.Assignment(5); err == nil {
		t.Error("out-of-range row should error")
	}
}

func TestDiagnose(t *testing.T) {
	factors := []Factor{MustFactor("A", "-", "+"), MustFactor("B", "-", "+")}
	simple, _ := Simple(factors)
	ms := Diagnose(simple, 0)
	if len(ms) != 2 {
		t.Fatalf("mistakes = %v", ms)
	}
	full, _ := FullFactorial([]Factor{
		MustFactor("A", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"),
		MustFactor("B", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"),
		MustFactor("C", "1", "2", "3", "4", "5", "6", "7", "8", "9", "10"),
	})
	full.Replicates = 3
	ms = Diagnose(full, 100)
	found := false
	for _, m := range ms {
		if m == MistakeTooManyExperiments {
			found = true
		}
		if m.String() == "" {
			t.Error("empty mistake string")
		}
	}
	if !found {
		t.Errorf("expected MistakeTooManyExperiments, got %v", ms)
	}
}

// TestAssignmentString pins the canonical rendering: queries select cells
// by it and the warehouse sorts by it.
func TestAssignmentString(t *testing.T) {
	many := Assignment{}
	want := ""
	for i := 0; i < 12; i++ { // more keys than String sorts without allocating
		many[string(rune('l'-i))] = strings.Repeat("v", i)
	}
	for i := 0; i < 12; i++ {
		want += string(rune('a'+i)) + "=" + strings.Repeat("v", 11-i) + " "
	}
	for _, tc := range []struct {
		a    Assignment
		want string
	}{
		{nil, ""},
		{Assignment{}, ""},
		{Assignment{"f": "x"}, "f=x"},
		{Assignment{"": ""}, "="},
		{Assignment{"g": "1", "f": "a b", "h": ""}, "f=a b g=1 h="},
		{many, strings.TrimSuffix(want, " ")},
	} {
		if got := tc.a.String(); got != tc.want {
			t.Errorf("%#v.String() = %q, want %q", tc.a, got, tc.want)
		}
	}
	if n := testing.AllocsPerRun(100, func() { _ = Assignment{"g": "1", "f": "a"}.String() }); n > 2 {
		t.Errorf("String allocates %v times for a two-factor assignment, want the result only", n)
	}
}
