package warehouse

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/framelog"
	"repro/internal/obs"
)

// encodeFrame builds one index frame, failing the test on an encoding
// error — used to construct damaged files byte by byte.
func encodeFrame(t *testing.T, r Run) []byte {
	t.Helper()
	frame, err := encodeIndexFrame(r)
	if err != nil {
		t.Fatal(err)
	}
	return frame
}

func sampleRun(path string, mod int64) Run {
	return Run{
		Path:         path,
		Size:         100,
		ModTimeNS:    mod,
		IngestTimeNS: mod + 1,
		Fingerprint:  0xdeadbeef,
		Format:       "journal",
		Records:      3,
		Cells: []Cell{{
			Experiment: "e",
			Hash:       "00000000000000aa",
			Assignment: map[string]string{"f": "x"},
			Response:   "ms",
			N:          3,
			Mean:       1.5,
			Variance:   0.25,
			selector:   "f=x",
		}},
	}
}

func TestFileEngineRoundTrip(t *testing.T) {
	path := filepath.Join(t.TempDir(), IndexFile)
	e, err := openIndex(path, new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	a, b := sampleRun("a.jsonl", 10), sampleRun("b.binj", 20)
	b.Format = "binary"
	for _, r := range []Run{a, b} {
		if err := e.Put(r); err != nil {
			t.Fatal(err)
		}
	}
	// Last-wins: replacing a.jsonl must supersede the first entry.
	a2 := a
	a2.Records = 7
	a2.ModTimeNS = 30
	if err := e.Put(a2); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	if err := e.Put(a); err == nil || !strings.Contains(err.Error(), "closed") {
		t.Fatalf("Put after Close = %v, want closed error", err)
	}

	e2, err := openIndex(path, new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	defer e2.Close()
	got := e2.Runs()
	want := []Run{b, a2} // sorted by (ModTimeNS, Path)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("reopened runs = %+v, want %+v", got, want)
	}
	if e2.Torn() {
		t.Fatal("clean file reported torn")
	}
}

func TestFileEngineTornTail(t *testing.T) {
	path := filepath.Join(t.TempDir(), IndexFile)
	e, err := openIndex(path, new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put(sampleRun("a.jsonl", 10)); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	intact, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	whole := encodeFrame(t, sampleRun("b.jsonl", 20))
	cases := map[string][]byte{
		"short header":      whole[:framelog.FrameHeaderSize-2],
		"short payload":     whole[:len(whole)-3],
		"checksum mismatch": append(append([]byte{}, whole[:4]...), append([]byte{0xde, 0xad, 0xbe, 0xef}, whole[framelog.FrameHeaderSize:]...)...),
		// What a file extended but never written before a crash reads back.
		"zero-filled tail": make([]byte, 4096),
	}
	for name, tail := range cases {
		t.Run(name, func(t *testing.T) {
			if err := os.WriteFile(path, append(append([]byte{}, intact...), tail...), 0o644); err != nil {
				t.Fatal(err)
			}
			e, err := openIndex(path, new(obs.Counter))
			if err != nil {
				t.Fatalf("open with torn tail: %v", err)
			}
			defer e.Close()
			if !e.Torn() {
				t.Fatal("torn tail not reported")
			}
			runs := e.Runs()
			if len(runs) != 1 || runs[0].Path != "a.jsonl" {
				t.Fatalf("runs after truncation = %+v, want only a.jsonl", runs)
			}
			// The torn bytes must be gone: the next Put appends a valid
			// frame at the truncated offset.
			if err := e.Put(sampleRun("c.jsonl", 30)); err != nil {
				t.Fatal(err)
			}
			if data, _ := os.ReadFile(path); len(data) <= len(intact) {
				t.Fatal("Put after truncation did not grow the file")
			}
			if _, _, torn, err := InspectIndex(path); err != nil || torn {
				t.Fatalf("index after repair: torn=%v err=%v", torn, err)
			}
		})
	}
}

func TestFileEngineRejectsCorruptFrames(t *testing.T) {
	dir := t.TempDir()
	garbage := []byte("this is not a run document")
	badPayload := indexFraming.Seal(append(indexFraming.Reserve(nil), garbage...), 0)

	impossible := make([]byte, framelog.FrameHeaderSize)
	binary.LittleEndian.PutUint32(impossible[0:4], maxIndexFrame+1)

	noPath := encodeFrame(t, Run{Size: 1})

	cases := map[string]struct {
		data []byte
		want string
	}{
		"bad magic":          {[]byte("NOTANIDX"), "not a warehouse index"},
		"short magic":        {[]byte("NOT"), "not a warehouse index"},
		"prefix of magic":    {[]byte(IndexMagic[:3]), ""}, // a crashed creation, not a foreign file
		"impossible length":  {append([]byte(IndexMagic), impossible...), "impossible payload length"},
		"undecodable JSON":   {append([]byte(IndexMagic), badPayload...), "corrupt index frame"},
		"run without a path": {append([]byte(IndexMagic), noPath...), "without a path"},
	}
	for name, tc := range cases {
		t.Run(name, func(t *testing.T) {
			path := filepath.Join(dir, name+".idx")
			if err := os.WriteFile(path, tc.data, 0o644); err != nil {
				t.Fatal(err)
			}
			if tc.want == "" {
				if n, _, torn, err := InspectIndex(path); err != nil || n != 0 || !torn {
					t.Fatalf("InspectIndex = (%d, torn=%v, %v), want (0, true, nil)", n, torn, err)
				}
				e, err := openIndex(path, new(obs.Counter))
				if err != nil {
					t.Fatalf("open of a crashed creation: %v", err)
				}
				defer e.Close()
				if !e.Torn() || len(e.Runs()) != 0 {
					t.Fatalf("Torn=%v runs=%d, want a torn index restarted empty", e.Torn(), len(e.Runs()))
				}
				if err := e.Put(sampleRun("a.jsonl", 10)); err != nil {
					t.Fatal(err)
				}
				if n, _, torn, err := InspectIndex(path); err != nil || n != 1 || torn {
					t.Fatalf("after restart InspectIndex = (%d, torn=%v, %v), want (1, false, nil)", n, torn, err)
				}
				return
			}
			if _, err := openIndex(path, new(obs.Counter)); err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("openIndex = %v, want error containing %q", err, tc.want)
			}
			if _, _, _, err := InspectIndex(path); err == nil {
				t.Fatal("InspectIndex accepted a corrupt index")
			}
		})
	}
}

func TestInspectIndex(t *testing.T) {
	path := filepath.Join(t.TempDir(), IndexFile)
	e, err := openIndex(path, new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	if err := e.Put(sampleRun("a.jsonl", 10)); err != nil {
		t.Fatal(err)
	}
	tomb := sampleRun("b.jsonl", 20)
	tomb.Pruned = true
	tomb.Cells = nil
	if err := e.Put(tomb); err != nil {
		t.Fatal(err)
	}
	if err := e.Close(); err != nil {
		t.Fatal(err)
	}
	runs, pruned, torn, err := InspectIndex(path)
	if err != nil {
		t.Fatal(err)
	}
	if runs != 2 || pruned != 1 || torn {
		t.Fatalf("InspectIndex = (%d, %d, %v), want (2, 1, false)", runs, pruned, torn)
	}
}
