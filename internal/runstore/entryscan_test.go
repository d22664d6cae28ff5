package runstore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"slices"
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

// checkPrediction holds a view's prediction of a payload's cell to a view
// of its own: b walked after a on one view — by the entry scan and by the
// field pass, a by either — gives b's entry and verdict, or b's fields, or
// b's error, exactly as b walked on a fresh view does; and a decoder
// (Open's) that decoded a decodes b to the record a fresh read gives.
func checkPrediction(t *testing.T, c *codec, a, b []byte) {
	t.Helper()
	wantEntry, wantErr := c.entry(b, NewFields())
	fresh := NewFields()
	wantFieldsErr := c.fields(b, fresh)
	sameErr := func(err, want error) bool {
		return (err == nil) == (want == nil) && (err == nil || err.Error() == want.Error())
	}
	for _, first := range []struct {
		name string
		walk func(*Fields)
	}{
		{"entry", func(f *Fields) { c.entry(a, f) }},
		{"fields", func(f *Fields) { c.fields(a, f) }},
	} {
		f := NewFields()
		first.walk(f)
		if got, err := c.entry(b, f); got != wantEntry || !sameErr(err, wantErr) {
			t.Fatalf("%s entry(%q) after %s(%q) on one view\n got %+v, %v\nwant %+v, %v", c.name, b, first.name, a, got, err, wantEntry, wantErr)
		}
		f = NewFields()
		first.walk(f)
		err := c.fields(b, f)
		if !sameErr(err, wantFieldsErr) {
			t.Fatalf("%s fields(%q) after %s(%q) on one view: error %v, on a fresh view %v", c.name, b, first.name, a, err, wantFieldsErr)
		}
		if err == nil && !sameFields(f, fresh) {
			t.Fatalf("%s fields(%q) after %s(%q) on one view hold\n %+v %q %+v\non a fresh view\n %+v %q %+v",
				c.name, b, first.name, a, f.Record(), f.Assignment(), f.Entry(), fresh.Record(), fresh.Assignment(), fresh.Entry())
		}
	}
	d := &decoder{c: c, f: NewFields(), names: make(map[string]string)}
	d.decode(a)
	rec, err := d.decode(b)
	want, werr := c.read(b)
	if !sameErr(err, werr) || err == nil && !sameRecord(rec, want) {
		t.Fatalf("%s decoder: %q after %q decodes to %#v, %v; read alone, %#v, %v", c.name, b, a, rec, err, want, werr)
	}
}

// sameFields reports whether two views hold the same record, member for
// member and in the same order, and give the same fingerprint and entry.
func sameFields(f, g *Fields) bool {
	if f.Row != g.Row || f.Replicate != g.Replicate || !bytes.Equal(f.Experiment, g.Experiment) || !bytes.Equal(f.Hash, g.Hash) ||
		f.Fingerprint() != g.Fingerprint() || f.Entry() != g.Entry() {
		return false
	}
	fa, ga := f.Assignment(), g.Assignment()
	if (fa == nil) != (ga == nil) || len(fa) != len(ga) {
		return false
	}
	for i := range fa {
		if !bytes.Equal(fa[i].Key, ga[i].Key) || !bytes.Equal(fa[i].Value, ga[i].Value) {
			return false
		}
	}
	fr, gr := f.Responses(), g.Responses()
	if (fr == nil) != (gr == nil) || len(fr) != len(gr) {
		return false
	}
	for i := range fr {
		if !bytes.Equal(fr[i].Name, gr[i].Name) || math.Float64bits(fr[i].Value) != math.Float64bits(gr[i].Value) {
			return false
		}
	}
	return true
}

// FuzzEntryScan runs checkEntryScan on arbitrary bytes as a payload of
// each codec: the verdict of its walk, and the fallback's
// re-encode-and-compare — for a and for b — and checkPrediction on the
// pair. The seeds are FuzzJSONCodec's and FuzzBinaryDecode's, each paired
// with itself, plus each way a JSON document can decode to a record and
// still not be the document AppendJSON writes for it, and pairs that share
// some of a cell's spans and not all of them.
func FuzzEntryScan(f *testing.F) {
	valid := `{"experiment":"e","row":0,"replicate":0,"hash":"00000000000000aa","assignment":{"f":"x"},"responses":{"ms":1.5}}`
	add := func(payload []byte) { f.Add(payload, payload) }
	add([]byte(valid))
	add([]byte(`{"experiment":"e","row":12,"replicate":3,"hash":"h","assignment":null,"responses":{}}`))
	add([]byte(`{"experiment":"a<b","row":-1,"replicate":0,"hash":"","assignment":{"k":"v","k":"w"},"responses":{"a":-0,"b":1e21,"c":1e-7,"d":5e-324}}`))
	add([]byte(`{"experiment":"é","row":9007199254740993,"replicate":0,"hash":"h","assignment":{" ":"\n"},"responses":{"v":1.7976931348623157e+308}}`))
	add([]byte(`{"replicate":2,"experiment":"e","unknown":[1,{"x":null}]}`))
	add([]byte(valid + " "))
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
		add(bytes.Replace([]byte(valid), []byte(edit[0]), []byte(edit[1]), 1))
	}
	bin := AppendBinary(nil, Record{
		Experiment: "e", Hash: "00000000000000aa",
		Assignment: map[string]string{"f": "x", "g": "y"},
		Responses:  map[string]float64{"ms": 1.5},
	})
	add(bin)
	add(bin[:len(bin)-3])
	add(AppendBinary(nil, Record{Experiment: "e"}))                                        // missing hash, nil maps
	add([]byte{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'g', 1, 'x', 1, 'f', 1, 'y', 0})             // unsorted keys
	add([]byte{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'f', 1, 'x', 1, 'f', 1, 'y', 0})             // duplicate key
	add([]byte{0x81, 0, 'e', 1, 'h', 0, 0, 0, 0})                                          // overlong varint
	add([]byte{1, 'e', 1, 'h', 0, 0, 0, 1, 1, 1, 'v', 1, 0, 0, 0, 0, 0, 0xf8, 0x7f})       // NaN response
	add([]byte{1, 'e', 1, 'h', 0, 0, 0, 1, 1, 1, 'v', 0, 0, 0, 0, 0, 0, 0, 0x80, 1, 2, 3}) // trailing bytes

	// Pairs: a, then b on the same view.
	edit := func(doc, from, to string) []byte { return bytes.Replace([]byte(doc), []byte(from), []byte(to), 1) }
	rep1 := string(edit(valid, `"replicate":0`, `"replicate":1`))
	for _, pair := range [][2][]byte{
		{[]byte(valid), []byte(rep1)}, // the next replicate: a hit
		{[]byte(valid), edit(rep1, `"hash":"00000000000000aa","assignment":{"f":"x"}`, `"hash":"00000000000000bb","assignment":{"f":"y"}`)}, // the head, not the middle
		{[]byte(valid), edit(rep1, `"row":0`, `"row":1`)},                                     // only the row
		{[]byte(valid), edit(rep1, `00000000000000aa`, `00000000000000ab`)},                   // one hash byte
		{[]byte(valid), edit(rep1, `{"f":"x"}`, `null`)},                                      // a null assignment after a present one
		{edit(valid, `{"f":"x"}`, `null`), edit(rep1, `{"f":"x"}`, `null`)},                   // and null twice
		{[]byte(valid), edit(rep1, `"replicate":1`, `"replicate":-0`)},                        // a hit whose replicate is not canonical
		{[]byte(valid), edit(rep1, `"replicate":1`, `"replicate":1.0`)},                       // nor an integer
		{edit(valid, `1.5`, `1.50`), []byte(rep1)},                                            // hand-edited, then canonical
		{edit(valid, `,"responses"`, ` ,"responses"`), []byte(rep1)},                          // unrecognised, then canonical
		{edit(valid, `"e"`, `"<e>"`), edit(rep1, `"e"`, `"<e>"`)},                             // spans only a lenient walk accepts
		{edit(valid, `{"f":"x"}`, `{"f":"x","g":"y"}`), edit(rep1, `{"f":"x"}`, `{"f":"x"}`)}, // a longer middle, then a shorter
		{[]byte(valid), []byte(`{"experiment":"e","row":0,"replicate":`)},                     // the head and nothing more
		{[]byte(valid), bin}, // another codec's payload
	} {
		f.Add(pair[0], pair[1])
	}
	binRep := func(rec Record, rep int) []byte {
		rec.Replicate = rep
		return AppendBinary(nil, rec)
	}
	cellRec := Record{Experiment: "e", Row: 3, Hash: "00000000000000aa", Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 1.5}}
	other := cellRec
	other.Row, other.Hash, other.Assignment = 4, "00000000000000bb", map[string]string{"f": "y"}
	nullCell := cellRec
	nullCell.Assignment = nil
	descending := []byte{1, 'e', 1, 'h', 0, 0, 1, 2, 1, 'g', 1, 'x', 1, 'f', 1, 'y', 0}
	for _, pair := range [][2][]byte{
		{binRep(cellRec, 0), binRep(cellRec, 1)},                                                               // the next replicate: a hit
		{binRep(cellRec, 0), binRep(other, 1)},                                                                 // another cell
		{binRep(cellRec, 0), binRep(nullCell, 1)},                                                              // a null assignment after a present one
		{descending, append([]byte{1, 'e', 1, 'h', 2}, descending[5:]...)},                                     // spans that are not canonical, then a hit
		{binRep(cellRec, 0), slices.Concat(binRep(cellRec, 0)[:19], []byte{0x80, 0}, binRep(cellRec, 0)[20:])}, // a hit's replicate overlong
		{binRep(cellRec, 0), binRep(cellRec, 0)[:24]},                                                          // a hit cut short
		{binRep(cellRec, 0), []byte(valid)},                                                                    // another codec's payload
	} {
		f.Add(pair[0], pair[1])
	}
	f.Fuzz(func(t *testing.T, a, b []byte) {
		for _, c := range []*codec{jsonCodec, binaryCodec} {
			checkEntryScan(t, c, a)
			checkEntryScan(t, c, b)
			checkPrediction(t, c, a, b)
		}
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

// TestIndexPassAllocsPerCell holds the index pass — Merge's and
// Compact's — and Inspect to a key per design cell, not per record, over
// a journal in the end-to-end benchmark's shape: 300 cells of 10
// replicates, each cell's replicates one after another in the order two
// workers finish them. A pass's view builds a cell's key once and every
// entry of the cell shares it; the fold and Inspect index entries by cell
// and replicate, and put a key together only for a Conflict. So a pass
// costs about 0.1 allocations per record for the keys (one more per
// section for a cell a cut splits) and a few dozen for itself, however
// long the journal: the reader and a view per section, the entry lists,
// the fold's maps and tables — 0.15 per record is the bound. A key per
// record costs 1.1.
func TestIndexPassAllocsPerCell(t *testing.T) {
	const cells, reps = 300, 10
	path := filepath.Join(t.TempDir(), "run.jsonl")
	resumeJournal(t, path, cells, reps, true)
	for name, pass := range map[string]func() error{
		"index pass": func() error {
			plan, ms, err := planMerge([]string{path})
			if err == nil && ms.Kept != cells*reps {
				err = fmt.Errorf("kept %d, want %d", ms.Kept, cells*reps)
			}
			if err == nil {
				err = plan.Close()
			}
			return err
		},
		"Inspect": func() error {
			info, err := Inspect(path)
			if err == nil && info.Distinct != cells*reps {
				err = fmt.Errorf("%d distinct, want %d", info.Distinct, cells*reps)
			}
			return err
		},
	} {
		perRecord := testing.AllocsPerRun(5, func() {
			if err := pass(); err != nil {
				t.Fatal(err)
			}
		}) / (cells * reps)
		if perRecord > 0.15 {
			t.Errorf("%s allocates %.3f times per record, want at most 0.15: one key per cell", name, perRecord)
		}
		t.Logf("%s: %.3f allocations per record", name, perRecord)
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
