package runstore

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"fmt"
	"hash/fnv"
	"maps"
	"math"
	"math/rand/v2"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// checkEncodeAgainstStdlib holds AppendJSON to its specification:
// json.Marshal's bytes for rec, or an error exactly when json.Marshal
// has one, with dst handed back unextended.
func checkEncodeAgainstStdlib(t *testing.T, rec Record) {
	t.Helper()
	want, wantErr := json.Marshal(rec)
	prefix := []byte("prefix|")
	got, err := AppendJSON(prefix, rec)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("AppendJSON(%+v) error = %v, json.Marshal error = %v", rec, err, wantErr)
	}
	if err != nil {
		if !bytes.Equal(got, prefix) {
			t.Fatalf("AppendJSON(%+v) failed but extended dst to %q", rec, got)
		}
		return
	}
	if !bytes.Equal(got[len(prefix):], want) || !bytes.HasPrefix(got, prefix) {
		t.Fatalf("AppendJSON bytes differ from json.Marshal for %+v\n got %s\nwant %s", rec, got[len(prefix):], want)
	}
}

// checkDecodeAgainstStdlib holds DecodeJSON to its specification: it
// fails exactly when json.Unmarshal into a zero Record fails, with the
// same message, and otherwise returns a deeply equal record — nil and
// empty maps told apart. It returns the record when there is one.
func checkDecodeAgainstStdlib(t *testing.T, doc []byte) (Record, bool) {
	t.Helper()
	var want Record
	wantErr := json.Unmarshal(doc, &want)
	got, err := DecodeJSON(doc)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("DecodeJSON(%q) error = %v, json.Unmarshal error = %v", doc, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("DecodeJSON(%q) error %q, json.Unmarshal says %q", doc, err, wantErr)
		}
		return Record{}, false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("DecodeJSON(%q) = %#v, json.Unmarshal gives %#v", doc, got, want)
	}
	return got, true
}

func TestJSONCodecEncodeEdges(t *testing.T) {
	floats := []float64{
		0, math.Copysign(0, -1), 1, -1, 0.5, 1.5, 100, 1e20, 1e21, -1e21, 1.5e300,
		1e-6, 1e-7, -1e-7, 9.999999e-7, 1e-10, 1.5e-10, 1e-100, 5e-324,
		math.MaxFloat64, -math.MaxFloat64, math.SmallestNonzeroFloat64,
		1 << 53, 1<<53 + 2, 1 << 62, 123456789012345680000, 0.1 + 0.2, math.Pi,
		math.NaN(), math.Inf(1), math.Inf(-1),
	}
	for _, f := range floats {
		checkEncodeAgainstStdlib(t, Record{Experiment: "e", Responses: map[string]float64{"v": f}})
		// A non-finite value next to finite ones must fail as a whole.
		checkEncodeAgainstStdlib(t, Record{Experiment: "e", Responses: map[string]float64{"a": 1, "v": f, "z": 2}})
	}
	texts := []string{
		"", "plain", "with space", "a<b", "a>b", "a&b", `quo"te`, `back\slash`, "tab\there", "nl\nhere",
		"cr\rhere", "\b\f", "\x00", "\x1f", "\x7f", "é", "日本語", "\u2028", "\u2029", "\ufffd",
		"\xff", "a\xc3", "\xed\xa0\x80", "🙂", "mixed <\xff > end", strings.Repeat("x", 300),
	}
	for _, s := range texts {
		checkEncodeAgainstStdlib(t, Record{
			Experiment: s, Hash: s,
			Assignment: map[string]string{s: s, "k": s},
			Responses:  map[string]float64{s: 1},
		})
	}
	big := Record{Experiment: "big", Assignment: map[string]string{}, Responses: map[string]float64{}}
	for i := 0; i < 40; i++ { // more keys than the encoder sorts on its stack
		k := strings.Repeat("k", i%7) + string(rune('a'+i%26)) + string(rune('A'+i/26))
		big.Assignment[k] = k
		big.Responses[k] = float64(i)
	}
	for _, rec := range []Record{
		{},
		{Assignment: map[string]string{}, Responses: map[string]float64{}},
		{Assignment: map[string]string{}},
		{Responses: map[string]float64{}},
		{Experiment: "e", Row: math.MaxInt, Replicate: math.MinInt},
		{Experiment: "e", Row: -1, Replicate: 1<<53 + 1},
		// Keys whose invalid bytes marshal to the same U+FFFD still sort raw.
		{Assignment: map[string]string{"\xff": "a", "\xfe": "b", "a": "c"}},
		big,
	} {
		checkEncodeAgainstStdlib(t, rec)
	}
}

func TestJSONCodecDecodeEdges(t *testing.T) {
	canonical := func(responses string) string {
		return `{"experiment":"e","row":1,"replicate":2,"hash":"h","assignment":{"f":"x"},"responses":` + responses + `}`
	}
	docs := []string{
		canonical(`{"ms":1.5}`),
		canonical(`{}`), canonical(`null`),
		`{"experiment":"","row":0,"replicate":0,"hash":"","assignment":null,"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{},"responses":{}}`,
		// Numbers: every spelling JSON allows, and the ones it does not.
		canonical(`{"v":-0}`), canonical(`{"v":0}`), canonical(`{"v":1e21}`), canonical(`{"v":1e+21}`),
		canonical(`{"v":1E21}`), canonical(`{"v":1e-7}`), canonical(`{"v":5e-324}`), canonical(`{"v":1e-400}`),
		canonical(`{"v":1.7976931348623157e+308}`), canonical(`{"v":1e999}`), canonical(`{"v":-1e999}`),
		canonical(`{"v":9007199254740993}`), canonical(`{"v":123456789012345678901234567890}`),
		canonical(`{"v":0.1000000000000000055511151231257827}`),
		canonical(`{"v":01}`), canonical(`{"v":1.}`), canonical(`{"v":.5}`), canonical(`{"v":+1}`), canonical(`{"v":-}`),
		canonical(`{"v":1e}`), canonical(`{"v":1e+}`), canonical(`{"v":0x10}`), canonical(`{"v":1_000}`),
		canonical(`{"v":NaN}`), canonical(`{"v":Inf}`), canonical(`{"v":Infinity}`), canonical(`{"v":null}`),
		canonical(`{"v":"1"}`), canonical(`{"v":true}`), canonical(`{"v":1,}`), canonical(`{"v":1 }`), canonical(`{"v"}`),
		// Integers.
		`{"experiment":"e","row":-0,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":-7,"replicate":-3,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":007,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":1.0,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":1e3,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":9007199254740993,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":999999999999999999,"replicate":-999999999999999999,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":9223372036854775807,"replicate":-9223372036854775808,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":9223372036854775808,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":null,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"e","row":"1","replicate":0,"hash":"h","assignment":null,"responses":null}`,
		// Strings: raw HTML characters, escapes, non-ASCII, invalid UTF-8, control characters.
		`{"experiment":"a<b>&c","row":0,"replicate":0,"hash":"h","assignment":{"<":">"},"responses":{"&":1}}`,
		`{"experiment":"a<b","row":0,"replicate":0,"hash":"h","assignment":{"k\n":"v\t"},"responses":{"\"":1}}`,
		"{\"experiment\":\"\u2028🙂\\ud83d\",\"row\":0,\"replicate\":0,\"hash\":\"h\",\"assignment\":null,\"responses\":null}",
		"{\"experiment\":\"é日本\u2029\",\"row\":0,\"replicate\":0,\"hash\":\"h\",\"assignment\":{\"é\":\"ü\"},\"responses\":{\"µs\":1}}",
		"{\"experiment\":\"\xff\",\"row\":0,\"replicate\":0,\"hash\":\"a\xc3\",\"assignment\":{\"\xfe\":\"\xff\"},\"responses\":{\"\xff\":1}}",
		"{\"experiment\":\"a\x7fb\",\"row\":0,\"replicate\":0,\"hash\":\"h\",\"assignment\":null,\"responses\":null}",
		"{\"experiment\":\"a\x00b\",\"row\":0,\"replicate\":0,\"hash\":\"h\",\"assignment\":null,\"responses\":null}",
		"{\"experiment\":\"a\tb\",\"row\":0,\"replicate\":0,\"hash\":\"h\",\"assignment\":null,\"responses\":null}",
		`{"experiment":"a\qb","row":0,"replicate":0,"hash":"h","assignment":null,"responses":null}`,
		`{"experiment":"unterminated`,
		`{"experiment":null,"row":0,"replicate":0,"hash":null,"assignment":null,"responses":null}`,
		// Maps: duplicate keys (last wins), a repeated field (its maps merge), wrong value types.
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"f":"x","f":"y"},"responses":{"v":1,"v":2}}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":"1"},"assignment":{"b":"2"},"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":"1"},"responses":{"v":1},"responses":{"w":2}}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":"1"},"responses":{"v":1},"assignment":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":1},"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":null},"responses":{"v":null}}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":"1",},"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{,},"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":[],"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":nul,"responses":null}`,
		`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"a":"1"`,
		// Shape: field order, case, missing and unknown fields, whitespace, trailing bytes.
		`{"row":1,"experiment":"e","replicate":2,"hash":"h","assignment":{"f":"x"},"responses":{"ms":1.5}}`,
		`{"Experiment":"e","ROW":1,"replicate":2,"hash":"h","assignment":{"f":"x"},"responses":{"ms":1.5}}`,
		`{"experiment":"e","replicate":2}`, `{}`, `{"experiment":"e"}`,
		`{"experiment":"e","row":1,"replicate":2,"hash":"h","assignment":{"f":"x"},"responses":{"ms":1.5},"extra":{"deep":[1,2,{"x":null}]}}`,
		`{"extra":1,"experiment":"e","row":1,"replicate":2,"hash":"h","assignment":{"f":"x"},"responses":{"ms":1.5}}`,
		`{ "experiment": "e", "row": 1, "replicate": 2, "hash": "h", "assignment": {"f": "x"}, "responses": {"ms": 1.5} }`,
		" " + canonical(`{"ms":1.5}`), canonical(`{"ms":1.5}`) + " ", canonical(`{"ms":1.5}`) + "\r", "\ufeff" + canonical(`{"ms":1.5}`),
		canonical(`{"ms":1.5}`) + "}", canonical(`{"ms":1.5}`) + "x", canonical(`{"ms":1.5}`) + canonical(`{"ms":1.5}`),
		canonical(`{"ms":1.5}`)[:40], canonical(`{"ms":1.5`),
		``, ` `, `null`, `[]`, `"experiment"`, `1`, `{`, `}`, "\x00",
	}
	for _, doc := range docs {
		if rec, ok := checkDecodeAgainstStdlib(t, []byte(doc)); ok {
			checkEncodeAgainstStdlib(t, rec)
		}
	}
}

// TestJSONCodecUnknownFieldTolerated pins the versioning rule of
// docs/FORMAT.md §10 by name: a line carrying a field this build does
// not know still decodes, through the fallback, to the fields it does.
func TestJSONCodecUnknownFieldTolerated(t *testing.T) {
	doc := `{"experiment":"e","row":1,"replicate":2,"hash":"h","assignment":{"f":"x"},"responses":{"ms":1.5},"unit":"ms"}`
	if walkJSON([]byte(doc), new(Fields), false) {
		t.Fatal("the walk accepted a document with an unknown field")
	}
	got, err := DecodeJSON([]byte(doc))
	if err != nil {
		t.Fatal(err)
	}
	want := Record{Experiment: "e", Row: 1, Replicate: 2, Hash: "h",
		Assignment: map[string]string{"f": "x"}, Responses: map[string]float64{"ms": 1.5}}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decoded %#v, want %#v", got, want)
	}
}

// TestJSONCodecRandomRecords is the differential check at volume:
// random records — plain and awkward names, every float regime, nil and
// empty maps — encode to json.Marshal's bytes, and those bytes decode
// to json.Unmarshal's record, most of them on the canonical pass.
func TestJSONCodecRandomRecords(t *testing.T) {
	n := 30_000
	if testing.Short() {
		n = 3_000
	}
	rng := rand.New(rand.NewPCG(18, 1))
	alphabets := []string{
		"abcdefghijklmnopqrstuvwxyz0123456789-_./ ",
		"ab<>&\"\\\n\t\x00\x1f\x7fé日 \xff\xc3",
	}
	text := func() string {
		alphabet := alphabets[0]
		if rng.IntN(10) == 0 {
			alphabet = alphabets[1]
		}
		b := make([]byte, rng.IntN(12))
		for i := range b {
			b[i] = alphabet[rng.IntN(len(alphabet))]
		}
		return string(b)
	}
	number := func() float64 {
		switch rng.IntN(6) {
		case 0:
			return float64(rng.IntN(2000) - 1000)
		case 1:
			return math.Float64frombits(rng.Uint64()) // any regime, NaN and Inf included
		case 2:
			return rng.Float64() * 1e-6
		case 3:
			return rng.Float64() * 1e21 * 2
		case 4:
			return math.Copysign(0, -1)
		default:
			return rng.NormFloat64() * 1000
		}
	}
	canonical := 0
	for i := 0; i < n; i++ {
		rec := Record{Experiment: text(), Row: rng.IntN(1 << 20), Replicate: rng.IntN(10) - 1, Hash: text()}
		if rng.IntN(8) > 0 {
			rec.Assignment = make(map[string]string)
			for k := rng.IntN(12); k > 0; k-- {
				rec.Assignment[text()] = text()
			}
		}
		if rng.IntN(8) > 0 {
			rec.Responses = make(map[string]float64)
			for k := rng.IntN(4); k > 0; k-- {
				rec.Responses[text()] = number()
			}
		}
		checkEncodeAgainstStdlib(t, rec)
		doc, err := AppendJSON(nil, rec)
		if err != nil {
			continue
		}
		checkDecodeAgainstStdlib(t, doc)
		if walkJSON(doc, new(Fields), false) {
			canonical++
		}
	}
	if canonical < n/3 {
		t.Errorf("only %d of %d random documents took the canonical pass", canonical, n)
	}
}

// TestHashesMatchFNVReference pins the written-out FNV-1a of
// AssignmentHash and Fingerprint to hash/fnv over the byte sequence
// they are defined on, for maps narrower and wider than the key scratch.
func TestHashesMatchFNVReference(t *testing.T) {
	rng := rand.New(rand.NewPCG(18, 2))
	for i := 0; i < 2000; i++ {
		rec := Record{Assignment: map[string]string{}, Responses: map[string]float64{}}
		for k := rng.IntN(14); k > 0; k-- {
			rec.Assignment[fmt.Sprintf("f%d\x00%d", rng.IntN(50), k)] = fmt.Sprint(rng.Uint32())
		}
		for k := rng.IntN(12); k > 0; k-- {
			rec.Responses[fmt.Sprintf("r%dé", rng.IntN(50))] = []float64{0, math.Copysign(0, -1), rng.NormFloat64()}[rng.IntN(3)]
		}
		ref := fnv.New64a()
		for _, k := range slices.Sorted(maps.Keys(rec.Assignment)) {
			ref.Write([]byte(k + "\x00" + rec.Assignment[k] + "\x00"))
		}
		if got, want := AssignmentHash(rec.Assignment), fmt.Sprintf("%016x", ref.Sum64()); got != want {
			t.Fatalf("AssignmentHash(%v) = %s, reference %s", rec.Assignment, got, want)
		}
		ref.Write([]byte{1})
		for _, k := range slices.Sorted(maps.Keys(rec.Responses)) {
			ref.Write([]byte(k + "\x00"))
			v := rec.Responses[k]
			if v == 0 {
				v = 0 // -0 fingerprints as +0
			}
			ref.Write(binary.LittleEndian.AppendUint64(nil, math.Float64bits(v)))
		}
		if got, want := Fingerprint(rec), ref.Sum64(); got != want {
			t.Fatalf("Fingerprint(%v) = %x, reference %x", rec, got, want)
		}
	}
}

// TestJSONCodecAllocs is the guard against reflection creeping back:
// encoding into a buffer with room allocates nothing, and decoding a
// canonical document allocates what the record itself is made of — the
// memory its seven strings here are cut from, and two maps — and nothing
// else, the same for a binary payload; giving up on a non-canonical one
// allocates nothing, so the fallback pays only encoding/json's own price.
func TestJSONCodecAllocs(t *testing.T) {
	rec := benchCodecRecords(t, 1)[0]
	buf := make([]byte, 0, 1<<10)
	if n := testing.AllocsPerRun(200, func() {
		var err error
		if buf, err = AppendJSON(buf[:0], rec); err != nil {
			t.Fatal(err)
		}
	}); n != 0 {
		t.Errorf("AppendJSON allocates %.0f time(s) per record, want 0", n)
	}
	doc, err := AppendJSON(nil, rec)
	if err != nil {
		t.Fatal(err)
	}
	f := new(Fields)
	if !walkJSON(doc, f, false) {
		t.Fatalf("the benchmark record is not canonical: %s", doc)
	}
	// The strings; each small map is a header plus one group of slots.
	const ceiling = 1 + 2*2
	if n := testing.AllocsPerRun(200, func() {
		if _, err := DecodeJSON(doc); err != nil {
			t.Fatal(err)
		}
	}); n > ceiling {
		t.Errorf("DecodeJSON allocates %.0f time(s) per canonical record, want at most %d", n, ceiling)
	}
	payload := AppendBinary(nil, rec)
	if n := testing.AllocsPerRun(200, func() {
		if _, err := decodeBinaryRecord(payload); err != nil {
			t.Fatal(err)
		}
	}); n > ceiling {
		t.Errorf("decodeBinaryRecord allocates %.0f time(s) per record, want at most %d", n, ceiling)
	}
	// A document the canonical pass gives up on must cost the fallback
	// nothing but the bytes walked: giving up allocates nothing.
	rec.Experiment = "bench-µs"
	if doc, err = AppendJSON(nil, rec); err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(200, func() {
		if walkJSON(doc, f, false) {
			t.Fatal("a non-ASCII name took the canonical pass")
		}
	}); n != 0 {
		t.Errorf("the canonical pass allocates %.0f time(s) before giving up, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if Fingerprint(rec) == 0 {
			t.Fatal("zero fingerprint")
		}
	}); n != 0 {
		t.Errorf("Fingerprint allocates %.0f time(s) per record, want 0", n)
	}
	if n := testing.AllocsPerRun(200, func() {
		if AssignmentHash(rec.Assignment) == "" {
			t.Fatal("empty hash")
		}
	}); n > 1 {
		t.Errorf("AssignmentHash allocates %.0f time(s) per call, want only its result", n)
	}
}
