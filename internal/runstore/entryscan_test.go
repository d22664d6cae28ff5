package runstore

import (
	"bytes"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"testing"
)

// checkEntryScan holds codec.entry to what it stands in for, on any
// payload: it fails exactly when decode fails; its entry is
// entryOf(decode(payload)) with a missing hash derived; and its verdict
// is exact — true if and only if encoding that record again reproduces
// the payload, which is what licenses a rewrite to copy the frame. (A
// verdict wrongly true would change output bytes; one wrongly false is
// a silent slowdown.)
func checkEntryScan(t *testing.T, c *codec, payload []byte) {
	t.Helper()
	got, err := c.entry(payload, new(Fields))
	rec, derr := c.decode(payload)
	if (err != nil) != (derr != nil) {
		t.Fatalf("%s entry(%q) error = %v, decode error = %v", c.name, payload, err, derr)
	}
	if err != nil {
		return
	}
	if rec.Hash == "" {
		rec.Hash = AssignmentHash(rec.Assignment)
	}
	want := entryOf(rec)
	again, aerr := c.appendRecord(nil, rec)
	want.canonical = aerr == nil && bytes.Equal(again, payload)
	if got != want {
		t.Fatalf("%s entry(%q)\n got %+v\nwant %+v (re-encoded: %q)", c.name, payload, got, want, again)
	}
}

// FuzzEntryScan runs checkEntryScan on arbitrary bytes as a payload of
// each codec: the verdict of its walk, and the fallback's
// re-encode-and-compare. The seeds are FuzzJSONCodec's and
// FuzzBinaryDecode's, plus each way a JSON document can decode to a
// record and still not be the document AppendJSON writes for it.
func FuzzEntryScan(f *testing.F) {
	valid := `{"experiment":"e","row":0,"replicate":0,"hash":"00000000000000aa","assignment":{"f":"x"},"responses":{"ms":1.5}}`
	f.Add([]byte(valid))
	f.Add([]byte(`{"experiment":"e","row":12,"replicate":3,"hash":"h","assignment":null,"responses":{}}`))
	f.Add([]byte(`{"experiment":"a<b","row":-1,"replicate":0,"hash":"","assignment":{"k":"v","k":"w"},"responses":{"a":-0,"b":1e21,"c":1e-7,"d":5e-324}}`))
	f.Add([]byte(`{"experiment":"é","row":9007199254740993,"replicate":0,"hash":"h","assignment":{" ":"\n"},"responses":{"v":1.7976931348623157e+308}}`))
	f.Add([]byte(`{"replicate":2,"experiment":"e","unknown":[1,{"x":null}]}`))
	f.Add([]byte(valid + " "))
	for _, edit := range [][2]string{
		{`"row":0`, `"row":-0`},
		{`"replicate":0`, `"replicate":-0`},
		{`"hash":"00000000000000aa"`, `"hash":""`},
		{`"e"`, `"<e>"`},
		{`1.5`, `1.50`},
		{`1.5`, `15e-1`},
		{`1.5`, `-0`},
		{`1.5`, `0.0000001`},
		{`1.5`, `0.123456789012345`},   // 15 significant digits
		{`1.5`, `0.1234567890123456`},  // 16
		{`1.5`, `0.12345678901234568`}, // 17
		{`1.5`, `123456789012345680000`},
		{`1.5`, `1.5e0`},
		{`1.5`, `1.5E+00`},
		{`1.5`, `1e21`},
		{`{"f":"x"}`, `{"g":"x","f":"y"}`},
		{`{"f":"x"}`, `{"f":"x","f":"y"}`},
		{`{"ms":1.5}`, `{"ms":1.5,"io":2}`},
		{`{"ms":1.5}`, `{"":1,"a":2}`},
	} {
		f.Add(bytes.Replace([]byte(valid), []byte(edit[0]), []byte(edit[1]), 1))
	}
	bin := AppendBinary(nil, Record{
		Experiment: "e", Hash: "00000000000000aa",
		Assignment: map[string]string{"f": "x", "g": "y"},
		Responses:  map[string]float64{"ms": 1.5},
	})
	f.Add(bin)
	f.Add(bin[:len(bin)-3])
	f.Add(AppendBinary(nil, Record{Experiment: "e"}))                                        // missing hash, nil maps
	f.Add([]byte{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'g', 1, 'x', 1, 'f', 1, 'y', 0})             // unsorted keys
	f.Add([]byte{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'f', 1, 'x', 1, 'f', 1, 'y', 0})             // duplicate key
	f.Add([]byte{0x81, 0, 'e', 1, 'h', 0, 0, 0, 0})                                          // overlong varint
	f.Add([]byte{1, 'e', 1, 'h', 0, 0, 0, 1, 1, 1, 'v', 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})       // NaN response
	f.Add([]byte{1, 'e', 1, 'h', 0, 0, 0, 1, 1, 1, 'v', 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3}) // trailing bytes
	f.Fuzz(func(t *testing.T, data []byte) {
		checkEntryScan(t, jsonCodec, data)
		checkEntryScan(t, binaryCodec, data)
	})
}

// TestEntryScanRecognisesAppendJSON is the other half of the verdict: it
// may only be true for canonical bytes, and it must be true for them
// without the fallback — every document AppendJSON writes for a record
// of plain strings and a non-empty hash, in every float regime, passes
// walkJSON's canonical walk itself — and the same record's binary payload
// walkBinary's. A walk that quietly stopped recognising its own encoder's
// output would cost every rewrite a decode and a re-encode per record and
// fail nothing else.
func TestEntryScanRecognisesAppendJSON(t *testing.T) {
	n := 30_000
	if testing.Short() {
		n = 3_000
	}
	rng := rand.New(rand.NewPCG(19, 1))
	const alphabet = "abcdefghijklmnopqrstuvwxyz0123456789-_./ =+#%'(){}[]:;,!?~^|@$*`"
	text := func(min int) string {
		b := make([]byte, min+rng.IntN(12))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		return string(b)
	}
	number := func() float64 {
		for {
			var v float64
			switch rng.IntN(6) {
			case 0:
				v = float64(rng.IntN(2000) - 1000)
			case 1:
				v = math.Float64frombits(rng.Uint64())
			case 2:
				v = rng.Float64() * 1e-6
			case 3:
				v = rng.Float64() * 1e21 * 2
			case 4:
				v = math.Copysign(0, -1)
			default:
				v = rng.NormFloat64() * 1000
			}
			if !math.IsNaN(v) && !math.IsInf(v, 0) {
				return v
			}
		}
	}
	for i := 0; i < n; i++ {
		rec := Record{Experiment: text(0), Row: rng.IntN(1<<20) - 8, Replicate: rng.IntN(10) - 1, Hash: text(1)}
		if rng.IntN(8) > 0 {
			rec.Assignment = make(map[string]string)
			for k := rng.IntN(12); k > 0; k-- {
				rec.Assignment[text(0)] = text(0)
			}
		}
		if rng.IntN(8) > 0 {
			rec.Responses = make(map[string]float64)
			for k := rng.IntN(4); k > 0; k-- {
				rec.Responses[text(0)] = number()
			}
		}
		doc, err := AppendJSON(nil, rec)
		if err != nil {
			t.Fatal(err)
		}
		var f Fields
		if !walkJSON(doc, &f, true) {
			t.Fatalf("walkJSON does not recognise AppendJSON's own output %s", doc)
		}
		want := entryOf(rec)
		if e := f.Entry(); e != want {
			t.Fatalf("walkJSON(%s)\n got %+v\nwant %+v", doc, e, want)
		}
		bin := AppendBinary(nil, rec)
		if canonical, err := walkBinary(bin, &f); err != nil || !canonical {
			t.Fatalf("walkBinary does not recognise AppendBinary's own output for %s: %v", doc, err)
		}
		if e := f.Entry(); e != want {
			t.Fatalf("walkBinary(%s)\n got %+v\nwant %+v", doc, e, want)
		}
	}
}

// TestEntryScanAllocs pins what the scan is for: one allocation per
// canonical payload (the key, which the experiment and the hash are cut
// from), in either codec, where decoding the record costs a dozen.
func TestEntryScanAllocs(t *testing.T) {
	doc := []byte(`{"experiment":"journey","row":7,"replicate":1,"hash":"00000000000000aa","assignment":{"cell":"c00007","pad":"x"},"responses":{"io":107,"ms":5.015}}`)
	rec, err := DecodeJSON(doc)
	if err != nil {
		t.Fatal(err)
	}
	for c, payload := range map[*codec][]byte{jsonCodec: doc, binaryCodec: AppendBinary(nil, rec)} {
		f := new(Fields)
		if n := testing.AllocsPerRun(200, func() {
			if e, err := c.entry(payload, f); err != nil || !e.canonical {
				t.Fatalf("%s entry = %+v, %v", c.name, e, err)
			}
		}); n > 1 {
			t.Errorf("%s entry scan of a canonical payload allocates %v times, want 1", c.name, n)
		}
	}
}

// compactFixture writes a compact canonical journal of n records — what
// Merge leaves behind — and returns its bytes.
func compactFixture(t *testing.T, path string, c *codec, n int) []byte {
	t.Helper()
	buf := []byte(c.framing.Magic())
	for i := 0; i < n; i++ {
		a := map[string]string{"cell": string(rune('a' + i))}
		var err error
		buf, err = c.appendFrame(buf, Record{
			Experiment: "noop", Row: i, Hash: AssignmentHash(a), Assignment: a,
			Responses: map[string]float64{"ms": float64(i) + 0.5},
		})
		if err != nil {
			t.Fatal(err)
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		t.Fatal(err)
	}
	return buf
}

// sameFile reports whether path is still the file fi described: an
// atomic rewrite replaces the inode even when the bytes come out equal.
func sameFile(t *testing.T, path string, fi os.FileInfo) bool {
	t.Helper()
	now, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	return os.SameFile(fi, now) && now.ModTime().Equal(fi.ModTime())
}

// TestCompactSkipsCompactJournal: an in-place Compact that would
// reproduce the file leaves it alone — same inode, same mtime, counted
// as skipped and not as records written — in either encoding; and every
// way a file can hold the same records without being those bytes is
// still rewritten, to exactly the compact bytes.
func TestCompactSkipsCompactJournal(t *testing.T) {
	const n = 5
	for _, c := range []*codec{jsonCodec, binaryCodec} {
		t.Run(c.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run"+c.ext)
			want := compactFixture(t, path, c, n)
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			skipped, written := metCompactSkipped.Value(), metCompactRecords.Value()
			for _, dst := range []string{"", path} {
				cs, err := Compact(path, dst)
				if err != nil {
					t.Fatal(err)
				}
				if cs != (CompactStats{Kept: n, Unchanged: true}) {
					t.Errorf("Compact(%q) stats = %+v, want kept %d, unchanged", dst, cs, n)
				}
			}
			if !sameFile(t, path, before) {
				t.Error("a compact journal was rewritten by an in-place Compact")
			}
			if got := metCompactSkipped.Value() - skipped; got != 2 {
				t.Errorf("runstore_compact_skipped_total moved by %d, want 2", got)
			}
			if got := metCompactRecords.Value() - written; got != 0 {
				t.Errorf("runstore_compact_records_total moved by %d on skipped compactions", got)
			}

			// Compact-aside always writes, and copies every frame.
			copied := metRewriteCopied.Value()
			aside := filepath.Join(dir, "aside"+c.ext)
			cs, err := Compact(path, aside)
			if err != nil || cs != (CompactStats{Kept: n}) {
				t.Fatalf("Compact aside = %+v, %v", cs, err)
			}
			if got, _ := os.ReadFile(aside); !bytes.Equal(got, want) {
				t.Errorf("compact-aside bytes differ from the source's")
			}
			if got := metRewriteCopied.Value() - copied; got != n {
				t.Errorf("runstore_rewrite_copied_records_total moved by %d, want %d", got, n)
			}

			// A destination in the other encoding is a conversion.
			other := jsonCodec
			if c == jsonCodec {
				other = binaryCodec
			}
			copied = metRewriteCopied.Value()
			if cs, err := Compact(path, filepath.Join(dir, "other"+other.ext)); err != nil || cs.Unchanged {
				t.Fatalf("Compact into %s = %+v, %v", other.ext, cs, err)
			}
			if got := metRewriteCopied.Value() - copied; got != 0 {
				t.Errorf("%d frame(s) copied across encodings", got)
			}
		})
	}

	line := func(b []byte, i int) []byte { return bytes.SplitAfter(b, []byte("\n"))[i] }
	for _, tc := range []struct {
		name string
		edit func(compact []byte) []byte
		torn bool
		drop int
	}{
		{"blank line", func(b []byte) []byte { return append(append(bytes.Clone(line(b, 0)), '\n'), b[len(line(b, 0)):]...) }, false, 0},
		{"unterminated last line", func(b []byte) []byte { return b[:len(b)-1] }, false, 0},
		{"torn tail", func(b []byte) []byte { return append(bytes.Clone(b), `{"experiment":"noop","ro`...) }, true, 0},
		{"one non-canonical line", func(b []byte) []byte { return bytes.Replace(b, []byte(`"ms":2.5`), []byte(`"ms":2.50`), 1) }, false, 0},
		{"superseded record", func(b []byte) []byte { return append(bytes.Clone(b), line(b, 1)...) }, false, 1},
	} {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			path := filepath.Join(dir, "run.jsonl")
			want := compactFixture(t, path, jsonCodec, n)
			if err := os.WriteFile(path, tc.edit(want), 0o644); err != nil {
				t.Fatal(err)
			}
			before, err := os.Stat(path)
			if err != nil {
				t.Fatal(err)
			}
			cs, err := Compact(path, "")
			if err != nil {
				t.Fatal(err)
			}
			if cs != (CompactStats{Kept: n, Dropped: tc.drop, Torn: tc.torn}) {
				t.Errorf("stats = %+v, want kept %d dropped %d torn %v, rewritten", cs, n, tc.drop, tc.torn)
			}
			if sameFile(t, path, before) {
				t.Error("journal was not rewritten")
			}
			if got, _ := os.ReadFile(path); !bytes.Equal(got, want) {
				t.Errorf("rewritten journal:\n%s\nwant:\n%s", got, want)
			}
			if cs, err := Compact(path, ""); err != nil || !cs.Unchanged {
				t.Errorf("second Compact = %+v, %v; want unchanged", cs, err)
			}
		})
	}
}
