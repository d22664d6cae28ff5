package framelog_test

import (
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strings"
	"testing"

	"repro/internal/framelog"
)

// restored is what one OpenSections of a file did: the bounds it read
// the file in, what each section's visit saw, the open's error less the
// path it starts with (or its Torn), and the bytes it left on disk.
type restored struct {
	bounds []int64
	got    [][]visited
	err    string
	torn   bool
	file   string
}

// records joins what the sections saw, in section order.
func (r restored) records() []visited { return slices.Concat(r.got...) }

// restoreLines writes data to a fresh file and opens it as a line log in
// up to n sections of at least floor bytes, through visits that reject
// every line starting "BAD" as undecodable, naming its offset.
func restoreLines(t *testing.T, data string, n int, floor int64) restored {
	t.Helper()
	path := filepath.Join(t.TempDir(), "log")
	if err := os.WriteFile(path, []byte(data), 0o644); err != nil {
		t.Fatal(err)
	}
	var r restored
	l, err := framelog.OpenSections(path, framelog.Lines, n, floor, func(bounds []int64) []framelog.Visit {
		r.bounds = bounds
		r.got = make([][]visited, len(bounds)-1)
		visits := make([]framelog.Visit, len(bounds)-1)
		for k := range visits {
			visits[k] = func(payload []byte, off, n int64) error {
				if strings.HasPrefix(string(payload), "BAD") {
					return framelog.Corrupt(fmt.Errorf("undecodable line at byte %d", off))
				}
				r.got[k] = append(r.got[k], visited{string(payload), off, n})
				return nil
			}
		}
		return visits
	})
	if err != nil {
		if r.err = strings.TrimPrefix(err.Error(), path+": "); r.err == err.Error() {
			t.Errorf("error %q does not name the file", err)
		}
	} else {
		r.torn = l.Torn()
		l.Close()
	}
	b, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	r.file = string(b)
	return r
}

// section returns the index of the section of bounds that holds off.
func section(bounds []int64, off int64) int {
	k, _ := slices.BinarySearch(bounds, off+1)
	return k - 1
}

// TestConcurrentSectionedRestore: a line log read in sections, side by
// side, is restored as one scan of the whole file restores it — the same
// records in file order, the same error, the same torn tail cut off, the
// same unterminated last line terminated. A corrupt line is the file's
// error wherever it lies; of two, the earlier is; a torn tail can only
// end the last section. A file under two floors is one section.
func TestConcurrentSectionedRestore(t *testing.T) {
	const lines, width, floor = 60, 32, 400 // 1 920 bytes: four sections of at least 400
	line := func(i int) string {
		s := fmt.Sprintf("rec %04d ", i)
		return s + strings.Repeat("x", width-1-len(s)) + "\n"
	}
	var clean strings.Builder
	for i := range lines {
		clean.WriteString(line(i))
	}
	spoil := func(i int, with string) func(string) string {
		return func(data string) string {
			return data[:i*width] + with + data[(i+1)*width:]
		}
	}
	bad := func(i int) string { return "BAD" + line(i)[3:] }
	at := func(i int) string { return fmt.Sprintf("undecodable line at byte %d", i*width) }
	for _, tc := range []struct {
		name     string
		edit     func(string) string
		err      string // a substring of the error; "" for none
		badLines []int  // the corrupt lines, each in a section of its own
		torn     bool
		file     func(string) string // what the open leaves of the edited file
	}{
		{name: "clean"},
		{name: "corrupt line in a middle section", edit: spoil(37, bad(37)), err: at(37), badLines: []int{37}},
		{name: "corrupt lines in two sections", edit: func(s string) string { return spoil(40, bad(40))(spoil(20, bad(20))(s)) },
			err: at(20), badLines: []int{20, 40}},
		{name: "torn tail", edit: func(s string) string { return s + "BAD torn" }, torn: true,
			file: func(s string) string { return strings.TrimSuffix(s, "BAD torn") }},
		{name: "unterminated last line", edit: func(s string) string { return strings.TrimSuffix(s, "\n") }},
	} {
		t.Run(tc.name, func(t *testing.T) {
			data := clean.String()
			if tc.edit != nil {
				data = tc.edit(data)
			}
			whole := restoreLines(t, data, 1, floor)
			cut := restoreLines(t, data, 4, floor)
			if len(whole.bounds) != 2 || len(cut.bounds) != 5 {
				t.Fatalf("read in %d and %d section(s), want 1 and 4", len(whole.bounds)-1, len(cut.bounds)-1)
			}
			for i, k := range tc.badLines {
				if s := section(cut.bounds, int64(k*width)); s == 0 || s == len(cut.bounds)-2 || i > 0 && s == section(cut.bounds, int64(tc.badLines[i-1]*width)) {
					t.Fatalf("corrupt line %d lies in section %d of %v: not a middle section of its own", k, s, cut.bounds)
				}
			}
			if tc.err == "" && whole.err != "" || !strings.Contains(whole.err, tc.err) {
				t.Fatalf("one section: error %q, want one naming %q", whole.err, tc.err)
			}
			if cut.err != whole.err {
				t.Errorf("in sections: error %q, one section %q", cut.err, whole.err)
			}
			if whole.torn != tc.torn || cut.torn != tc.torn {
				t.Errorf("torn: one section %v, in sections %v; want %v", whole.torn, cut.torn, tc.torn)
			}
			want := data
			switch {
			case tc.file != nil:
				want = tc.file(data)
			case !strings.HasSuffix(data, "\n"):
				want = data + "\n"
			}
			if whole.file != want || cut.file != want {
				t.Errorf("file left\none section: %q\nin sections: %q\nwant %q", whole.file, cut.file, want)
			}
			if tc.err != "" {
				return
			}
			if got := cut.records(); !slices.Equal(got, whole.records()) || len(got) != lines {
				t.Errorf("in sections the visits saw %d record(s), one section %d, want the same %d", len(got), len(whole.records()), lines)
			}
			for k, recs := range cut.got {
				for _, v := range recs {
					if section(cut.bounds, v.off) != k {
						t.Errorf("section %d of %v saw the record at byte %d", k, cut.bounds, v.off)
					}
				}
			}
		})
	}

	t.Run("under two floors", func(t *testing.T) {
		r := restoreLines(t, clean.String(), 4, lines*width/2+1)
		if len(r.bounds) != 2 || r.err != "" || len(r.records()) != lines {
			t.Errorf("read in %d section(s), error %q, %d record(s); want one section, all %d", len(r.bounds)-1, r.err, len(r.records()), lines)
		}
	})

	t.Run("frames", func(t *testing.T) {
		fr := framelog.Frames("test log", "TESTLOG\n", 1<<20)
		path := filepath.Join(t.TempDir(), "log")
		l, err := framelog.Open(path, fr, noReplay)
		if err != nil {
			t.Fatal(err)
		}
		var batch []byte
		for i := range lines {
			start := len(batch)
			batch = fr.Seal(append(fr.Reserve(batch), line(i)[:width-1]...), start)
		}
		if err := l.Commit(batch, nil); err != nil {
			t.Fatal(err)
		}
		l.Close()
		var bounds []int64
		seen := 0
		l, err = framelog.OpenSections(path, fr, 4, 16, func(b []int64) []framelog.Visit {
			bounds = b
			visits := make([]framelog.Visit, len(b)-1)
			for k := range visits {
				visits[k] = func([]byte, int64, int64) error { seen++; return nil }
			}
			return visits
		})
		if err != nil {
			t.Fatal(err)
		}
		l.Close()
		if len(bounds) != 2 || seen != lines {
			t.Errorf("a frames file read in %d section(s), %d frame(s) seen; want one section, %d", len(bounds)-1, seen, lines)
		}
	})
}
