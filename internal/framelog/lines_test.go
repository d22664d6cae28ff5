package framelog_test

import (
	"errors"
	"fmt"
	"strings"
	"testing"

	"repro/internal/framelog"
)

// visited is one record as a line scan reported it, copied out of the
// payload during the visit.
type visited struct {
	payload string
	off, n  int64
}

// scanLines scans data as a line log, with a visitor that takes its copy
// and then scribbles over the payload it was handed — which a Visit may:
// the payload is the scan's buffer, lent for the call. A scan (or a
// consumer) that expected a payload to keep its bytes past the visit
// reads the scribble. reject marks payloads the visitor cannot decode.
func scanLines(t *testing.T, data string, reject func(string) bool) (got []visited, keep int64, torn bool, err error) {
	t.Helper()
	keep, torn, err = framelog.Lines.Scan(strings.NewReader(data), 0, func(payload []byte, off, n int64) error {
		line := string(payload)
		for i := range payload {
			payload[i] = '#'
		}
		if reject != nil && reject(line) {
			return framelog.Corrupt(fmt.Errorf("undecodable line at byte %d", off))
		}
		got = append(got, visited{line, off, n})
		return nil
	})
	return got, keep, torn, err
}

// TestScanLinesLongerThanTheBuffer: a line is handed over where the
// reader's 64 KiB buffer holds it, and gathered only when it does not fit.
// Lines shorter than, exactly at, and several times the buffer — between
// ordinary ones, and blank ones that are skipped — come out whole, with
// the offsets and lengths they have in the file, from a visitor that
// overwrites every payload it is handed.
func TestScanLinesLongerThanTheBuffer(t *testing.T) {
	t.Parallel()
	const buffer = 64 << 10
	lines := []string{
		"first",
		strings.Repeat("a", buffer-1), // with its newline, exactly the buffer
		strings.Repeat("b", buffer),   // one byte too many
		"",
		strings.Repeat("c", 3*buffer+17),
		"   ",
		"between",
		strings.Repeat("d", buffer+1),
		"last",
	}
	var want []visited
	off := int64(0)
	for _, line := range lines {
		if strings.TrimSpace(line) != "" {
			want = append(want, visited{line, off, int64(len(line))})
		}
		off += int64(len(line)) + 1
	}
	data := strings.Join(lines, "\n") + "\n"

	got, keep, torn, err := scanLines(t, data, nil)
	if err != nil || torn || keep != int64(len(data)) {
		t.Fatalf("scan = keep %d, torn %v, %v; want %d, false, nil", keep, torn, err, len(data))
	}
	if len(got) != len(want) {
		t.Fatalf("scan visited %d line(s), want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("line %d: %d byte(s) at %d (reported length %d) starting %.10q; want %d at %d starting %.10q",
				i, len(got[i].payload), got[i].off, got[i].n, got[i].payload, len(want[i].payload), want[i].off, want[i].payload)
		}
	}

	// The same file without its last newline: the last line is still whole,
	// and kept — it decoded.
	got, keep, torn, err = scanLines(t, data[:len(data)-1], nil)
	if err != nil || torn || keep != int64(len(data)-1) || len(got) != len(want) || got[len(got)-1] != want[len(want)-1] {
		t.Fatalf("unterminated last line: keep %d, torn %v, %v, %d line(s)", keep, torn, err, len(got))
	}
}

// TestScanLinesLongTornTail: the recovery rule does not depend on where a
// line was held. A line several buffers long that does not decode is a
// torn tail when it is the unterminated last one — dropped, keep at its
// start — and corruption, with the visitor's error, when a newline
// follows it.
func TestScanLinesLongTornTail(t *testing.T) {
	t.Parallel()
	long := strings.Repeat("x", 200<<10)
	reject := func(line string) bool { return strings.HasPrefix(line, "x") }
	prefix := "one\ntwo\n"

	got, keep, torn, err := scanLines(t, prefix+long, reject)
	if err != nil || !torn || keep != int64(len(prefix)) || len(got) != 2 {
		t.Fatalf("torn long tail: keep %d, torn %v, %v, %d line(s); want %d, true, nil, 2", keep, torn, err, len(got), len(prefix))
	}

	_, _, _, err = scanLines(t, prefix+long+"\nthree\n", reject)
	if err == nil || !strings.Contains(err.Error(), fmt.Sprintf("undecodable line at byte %d", len(prefix))) {
		t.Fatalf("terminated undecodable long line: %v; want the visitor's error", err)
	}

	// A reader that fails mid-line fails the scan: a read error is never a
	// torn tail, however much of the line had been gathered.
	broken := errors.New("disk on fire")
	_, _, err = framelog.Lines.Scan(&failingReader{data: []byte(prefix + long), err: broken}, 0, func([]byte, int64, int64) error { return nil })
	if !errors.Is(err, broken) {
		t.Fatalf("scan over a failing reader: %v; want %v", err, broken)
	}
}

// failingReader serves data, then fails with err instead of ending.
type failingReader struct {
	data []byte
	err  error
}

func (r *failingReader) Read(p []byte) (int, error) {
	if len(r.data) == 0 {
		return 0, r.err
	}
	n := copy(p, r.data)
	r.data = r.data[n:]
	return n, nil
}
