package runstore_test

import (
	"bytes"
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
)

// recordPathBytes is the reference a rewrite is held to: the file the
// record path writes for recs — every record encoded, none copied.
func recordPathBytes(t *testing.T, ext string, recs []runstore.Record) []byte {
	t.Helper()
	var buf bytes.Buffer
	encode := runstore.EncodeWire
	if ext == runstore.BinaryExt {
		buf.WriteString(runstore.BinaryMagic)
		encode = runstore.EncodeWireBinary
	}
	for _, rec := range recs {
		if err := encode(&buf, rec); err != nil {
			t.Fatal(err)
		}
	}
	return buf.Bytes()
}

func copiedFrames() float64 {
	m, _ := obs.Default().Snapshot().Get("runstore_rewrite_copied_records_total")
	return m.Value
}

// TestRewriteMatchesRecordPath is the differential test behind "a
// canonical frame is copied, not re-made": over sources that mix
// canonical frames with every hand edit a journal tolerates — in both
// encodings, across encodings, and from an archive — Merge and Compact
// write exactly the bytes decoding and re-encoding every record writes.
func TestRewriteMatchesRecordPath(t *testing.T) {
	dir := t.TempDir()
	canon := func(row int, ms float64) string {
		var buf bytes.Buffer
		if err := runstore.EncodeWire(&buf, runstore.Record{
			Experiment: "diff", Row: row,
			Assignment: map[string]string{"f": fmt.Sprint(row)},
			Responses:  map[string]float64{"ms": ms},
		}); err != nil {
			t.Fatal(err)
		}
		return buf.String()
	}
	write := func(name, content string) string {
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, []byte(content), 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}

	a := write("a.jsonl", canon(0, 0.5)+canon(1, 1.5)+"\n"+
		`{"row":3,"experiment":"diff","hash":"h3","replicate":0,"responses":{"ms":3},"assignment":{"f":"3"}}`+"\n"+ // reordered fields
		canon(2, 2.5)+
		`{ "experiment": "diff", "row": 4, "replicate": 0, "hash": "h4", "assignment": {"f": "4"}, "responses": {"ms": 4} }`+"\n"+ // whitespace
		`{"experiment":"diff","row":5,"replicate":0,"hash":"h5","assignment":{"f":"5"},"responses":{"a":1.0,"b":1e2,"c":-0}}`+"\n"+ // numbers not shortest
		`{"experiment":"diff","row":-0,"replicate":0,"hash":"h6","assignment":{"f":"6"},"responses":{"ms":6}}`+"\n"+ // -0 integer
		canon(1, 11.5)+ // supersedes row 1
		`{"experiment":"diff","row":7,"replicate":0,"hash":"h7","assignment":{"z":"1","a":"2","a":"3"},"responses":{"y":1,"x":2}}`+"\n"+ // unsorted and duplicate keys
		`{"experiment":"diff","row":8,"replicate":0,"hash":"h8","assignment":{"f":"<a>&b"},"responses":{"ms":8}}`+"\n"+ // raw <>&
		`{"experiment":"diff","row":9,"replicate":0,"hash":"h9","assignment":{"f":"\u0041\n"},"responses":{"ms":9}}`+"\n"+ // escapes
		`{"experiment":"diffé","row":10,"replicate":0,"hash":"h10","assignment":{"f":"10"},"responses":{"ms":10}}`+"\n"+ // non-ASCII experiment
		`{"experiment":"diff","row":11,"replicate":0,"hash":"","assignment":{"f":"11"},"responses":{"ms":11}}`+"\n"+ // empty hash
		`{"experiment":"diff","row":12,"replicate":0,"assignment":{"f":"12"},"responses":{"ms":12}}`+"\n"+ // no hash
		canon(13, 13.5)[:len(canon(13, 13.5))-1]) // unterminated last line
	b := write("b.jsonl", canon(20, 20.5)+"  \n"+canon(21, 21.5)+canon(2, 2.5)+canon(22, 22.5)+
		`{"experiment":"diff","row":23,"repl`) // torn tail

	frame := func(payload []byte) []byte {
		out := binary.LittleEndian.AppendUint32(nil, uint32(len(payload)))
		out = binary.LittleEndian.AppendUint32(out, crc32.Checksum(payload, crc32.MakeTable(crc32.Castagnoli)))
		return append(out, payload...)
	}
	var binj bytes.Buffer
	binj.WriteString(runstore.BinaryMagic)
	for row := 30; row < 33; row++ {
		if err := runstore.EncodeWireBinary(&binj, runstore.Record{
			Experiment: "diff", Row: row,
			Assignment: map[string]string{"f": fmt.Sprint(row)},
			Responses:  map[string]float64{"ms": float64(row)},
		}); err != nil {
			t.Fatal(err)
		}
	}
	// experiment "diff", hash "h33", replicate 0, row 33 (zig-zag 66),
	// assignment {"z":"1","a":"2"} with its keys out of order, no responses.
	binj.Write(frame([]byte{4, 'd', 'i', 'f', 'f', 3, 'h', '3', '3', 0, 66, 1, 2, 1, 'z', 1, '1', 1, 'a', 1, '2', 0}))
	binj.Write(frame([]byte{4, 'd', 'i', 'f', 'f', 0, 0, 68, 0, 0})) // no hash, row 34
	binj.Write([]byte{40, 0, 0, 0, 1, 2})                            // torn tail
	c := write("c"+runstore.BinaryExt, binj.String())

	d := filepath.Join(dir, "d"+archivestore.Ext)
	if _, err := runstore.Merge([]string{write("d.jsonl", canon(40, 40.5)+canon(0, 99.5)+canon(41, 41.5))}, d); err != nil {
		t.Fatal(err)
	}

	for _, srcs := range [][]string{{a}, {b}, {c}, {a, b}, {b, a}, {a, b, c}, {c, a}, {d, a}, {a, d, c, b}} {
		for _, ext := range []string{".jsonl", runstore.BinaryExt} {
			recs, _, err := runstore.MergeRecords(srcs)
			if err != nil {
				t.Fatal(err)
			}
			dst := filepath.Join(dir, "merged"+ext)
			if _, err := runstore.Merge(srcs, dst); err != nil {
				t.Fatal(err)
			}
			want := recordPathBytes(t, ext, recs)
			if got, _ := os.ReadFile(dst); !bytes.Equal(got, want) {
				t.Fatalf("Merge(%v) into %s:\n%q\nthe record path writes:\n%q", srcs, ext, got, want)
			}
			// What Merge wrote is compact: Compact leaves it alone.
			if cs, err := runstore.Compact(dst, ""); err != nil || !cs.Unchanged || cs.Kept != len(recs) {
				t.Fatalf("Compact of Merge(%v) into %s = %+v, %v; want unchanged", srcs, ext, cs, err)
			}
			if got, _ := os.ReadFile(dst); !bytes.Equal(got, want) {
				t.Fatalf("Compact changed a merged journal")
			}
		}
	}
	// Both paths ran: a frame is copied exactly when it is canonical and
	// source and destination share an encoding.
	for _, tc := range []struct {
		srcs []string
		ext  string
		want float64
	}{
		// a's rows 0, 1 (the superseding line), 13 and — not plain, so
		// judged by re-encoding, but written as json.Marshal writes it —
		// 10; b's 20, 21, 2, 22.
		{[]string{a, b}, ".jsonl", 8},
		{[]string{a, b}, runstore.BinaryExt, 0},
		{[]string{c}, runstore.BinaryExt, 3},
		{[]string{c}, ".jsonl", 0},
		{[]string{d}, ".jsonl", 0},
	} {
		before := copiedFrames()
		if _, err := runstore.Merge(tc.srcs, filepath.Join(dir, "counted"+tc.ext)); err != nil {
			t.Fatal(err)
		}
		if copied := copiedFrames() - before; copied != tc.want {
			t.Errorf("Merge(%v) into %s copied %v frame(s), want %v", tc.srcs, tc.ext, copied, tc.want)
		}
	}

	for _, src := range []string{a, b, c} {
		recs, err := runstore.LoadRecords(src)
		if err != nil {
			t.Fatal(err)
		}
		for _, ext := range []string{".jsonl", runstore.BinaryExt} {
			dst := filepath.Join(dir, "compacted"+ext)
			if cs, err := runstore.Compact(src, dst); err != nil || cs.Unchanged {
				t.Fatalf("Compact(%s) aside = %+v, %v", src, cs, err)
			}
			if got, want := mustRead(t, dst), recordPathBytes(t, ext, recs); !bytes.Equal(got, want) {
				t.Fatalf("Compact(%s) into %s:\n%q\nthe record path writes:\n%q", src, ext, got, want)
			}
		}
		ext := filepath.Ext(src)
		inPlace := write("inplace"+ext, string(mustRead(t, src)))
		if cs, err := runstore.Compact(inPlace, ""); err != nil || cs.Unchanged {
			t.Fatalf("Compact(%s) in place = %+v, %v", src, cs, err)
		}
		if got, want := mustRead(t, inPlace), recordPathBytes(t, ext, recs); !bytes.Equal(got, want) {
			t.Fatalf("Compact(%s) in place:\n%q\nthe record path writes:\n%q", src, got, want)
		}
	}

	// A renamed archive compacted in place is rewritten as an archive,
	// never mistaken for a compact journal.
	renamed := write("renamed.jsonl", string(mustRead(t, d)))
	cs, err := runstore.Compact(renamed, "")
	if err != nil || cs.Unchanged || cs.Kept != 3 {
		t.Fatalf("Compact of a renamed archive = %+v, %v", cs, err)
	}
	if info, err := runstore.Inspect(renamed); err != nil || info.Detail == "" || info.Distinct != 3 {
		t.Errorf("renamed archive after Compact: %+v, %v; want an archive of 3", info, err)
	}
}

func mustRead(t *testing.T, path string) []byte {
	t.Helper()
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	return data
}
