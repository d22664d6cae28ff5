package runstore

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/framelog"
)

// withSectionFloor runs fn with the index pass cutting line-framed
// sources into sections as small as floor bytes, restoring the default
// after. A test that calls it must not run in parallel.
func withSectionFloor(floor int64, fn func()) {
	old := sectionFloor
	sectionFloor = floor
	defer func() { sectionFloor = old }()
	fn()
}

// indexed is what one index pass made of a file: its entries in file
// order (none once it failed), the error that stopped it, and the Info
// and canonical verdict it left on the reader.
type indexed struct {
	entries   []SourceEntry
	err       string
	info      Info
	canonical bool
}

func (x indexed) equal(y indexed) bool {
	return slices.Equal(x.entries, y.entries) && x.err == y.err && x.info == y.info && x.canonical == y.canonical
}

// left fills in what the pass left on the reader.
func (x indexed) left(r SourceReader) indexed {
	x.info = r.Info()
	if fs, ok := r.(*fileSource); ok {
		x.canonical = fs.canonical
	}
	return x
}

// sectionedPass reads path the way Merge and Compact do — through the
// index pass's pool — cut into up to n sections.
func sectionedPass(t testing.TB, path string, n int) indexed {
	t.Helper()
	r, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	plan := &mergePlan{sources: []*mergeSource{newMergeSource(r)}}
	var got indexed
	if err := plan.scan(n); err != nil {
		got.err = err.Error()
	} else {
		got.entries = plan.sources[0].winners
	}
	return got.left(r)
}

// oneSectionPass reads path front to back through Entries: the one serial
// scan that every section is read by.
func oneSectionPass(t testing.TB, path string) indexed {
	t.Helper()
	r, err := OpenSource(path)
	if err != nil {
		t.Fatal(err)
	}
	defer r.Close()
	var got indexed
	for e, err := range r.Entries() {
		if err != nil {
			got.entries, got.err = nil, err.Error()
			break
		}
		got.entries = append(got.entries, e)
	}
	return got.left(r)
}

// checkSections holds the index pass over path, cut into 1 to 8 sections,
// to the one-section pass, and returns the most sections it was cut into.
func checkSections(t testing.TB, path string) int {
	t.Helper()
	want := oneSectionPass(t, path)
	most := 1
	for n := 1; n <= 8; n++ {
		if got := sectionedPass(t, path, n); !got.equal(want) {
			t.Fatalf("%s in up to %d section(s): %d entries, error %q, %+v, canonical %v; one section: %d entries, error %q, %+v, canonical %v",
				filepath.Base(path), n, len(got.entries), got.err, got.info, got.canonical, len(want.entries), want.err, want.info, want.canonical)
		}
		r, err := OpenSource(path)
		if err != nil {
			t.Fatal(err)
		}
		if fs, ok := r.(*fileSource); ok {
			most = max(most, len(fs.sections(n))-1)
		}
		r.Close()
	}
	return most
}

// sectionFixture is a journal of n canonical lines, every fifth key
// appended again, with one line longer than framelog's 64 KiB reader
// buffer in the middle.
func sectionFixture(t *testing.T, n int) []byte {
	t.Helper()
	var b []byte
	for i := 0; i < n; i++ {
		a := map[string]string{"cell": fmt.Sprintf("c%04d", i)}
		if i%5 == 4 {
			a["cell"] = fmt.Sprintf("c%04d", i-4) // supersedes an earlier key
		}
		if i == n/2 {
			a["pad"] = strings.Repeat("p", 70<<10)
		}
		var err error
		b, err = jsonCodec.appendFrame(b, Record{
			Experiment: "sec", Row: i, Hash: AssignmentHash(a), Assignment: a,
			Responses: map[string]float64{"ms": float64(i) + 0.25, "io": float64(i % 7)},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	return b
}

// lineStart returns where the line holding data[i] starts.
func lineStart(data []byte, i int) int { return bytes.LastIndexByte(data[:i], '\n') + 1 }

// TestSectionedScanEqualsOneSection: Merge's and Compact's index pass
// reads a line-framed journal in sections cut just past a newline, on
// every core, and joins them in file order. Over every shape the recovery
// rule and the canonical verdict tell apart — blank and whitespace-only
// lines, a hand-edited line, a line longer than the reader's buffer where
// a section would otherwise end, a corrupt terminated line just before a
// cut and one just after it, a torn tail, a decodable last line without
// its newline, an empty file — it yields exactly the one-section pass's
// entries, error text, Info and canonical verdict, cut into any number of
// sections from 1 to 8.
func TestSectionedScanEqualsOneSection(t *testing.T) {
	dir := t.TempDir()
	base := sectionFixture(t, 1200)
	cases := map[string][]byte{
		"canonical":    base,
		"empty":        nil,
		"torn tail":    slices.Concat(base, []byte(`{"experiment":"sec","ro`)),
		"unterminated": base[:len(base)-1],
		"hand-edited":  bytes.Replace(base, []byte(`,"responses":`), []byte(`, "responses":`), 1),
	}
	blanks := slices.Clone(base)
	for _, at := range []int{len(base) / 5, len(base) / 2, 4 * len(base) / 5} {
		start := lineStart(blanks, at)
		blanks = slices.Concat(blanks[:start], []byte("\n   \n\t\n"), blanks[start:])
	}
	cases["blank lines"] = slices.Concat([]byte(" \n"), blanks)
	for n := 2; n <= 8; n++ {
		bounds, err := framelog.Lines.Sections(bytes.NewReader(base), int64(len(base)), n, 1)
		if err != nil {
			t.Fatal(err)
		}
		cut := int(bounds[len(bounds)/2])
		for side, at := range map[string]int{"before": cut - 1, "after": cut} {
			corrupt := slices.Clone(base)
			corrupt[lineStart(base, at)] = 'x'
			cases[fmt.Sprintf("corrupt line %s a cut into %d", side, n)] = corrupt
		}
	}
	withSectionFloor(1, func() {
		for name, data := range cases {
			path := filepath.Join(dir, strings.ReplaceAll(name, " ", "-")+".jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			if most := checkSections(t, path); len(data) > 0 && most < 8 {
				t.Errorf("%s: cut into %d section(s) at most, want 8", name, most)
			}
		}
	})
}

// FuzzSectionedScan writes arbitrary bytes as a .jsonl file and holds the
// index pass over it, cut into 1 to 8 sections, to the one-section pass:
// the same entries, error text, Info and canonical verdict.
func FuzzSectionedScan(f *testing.F) {
	valid := `{"experiment":"e","row":0,"replicate":0,"hash":"00000000000000aa","assignment":{"f":"x"},"responses":{"ms":1.5}}`
	f.Add([]byte(""))
	f.Add([]byte(valid + "\n" + valid + "\n" + valid + "\n"))
	f.Add([]byte("\n" + valid + "\n\n  \n" + valid + "\n\t\n" + valid))
	f.Add([]byte(valid + "\n" + valid + "\n" + `{"experiment":"e","ro`))
	f.Add([]byte(valid + "\n" + `{"experiment":"e","ro` + "\n" + valid + "\n"))
	f.Add([]byte(strings.Replace(valid, `,"responses"`, `, "responses"`, 1) + "\n" + valid + "\n" + valid))
	f.Add([]byte(valid + "\n" + strings.Replace(valid, "1.5", "1.50", 1) + "\n" + strings.Replace(valid, "1.5", "15e-1", 1) + "\n"))
	withSectionFloor(1, func() {
		f.Fuzz(func(t *testing.T, data []byte) {
			path := filepath.Join(t.TempDir(), "fuzz.jsonl")
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			checkSections(t, path)
		})
	})
}
