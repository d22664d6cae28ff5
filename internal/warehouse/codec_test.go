package warehouse

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
)

// checkRunDecodeAgainstStdlib holds decodeRun, replaying into rp, to
// json.Unmarshal on one document: both fail, with one message, or return
// deeply equal runs — nil and empty maps and slices told apart, every
// cell's selector what its assignment renders to.
func checkRunDecodeAgainstStdlib(t *testing.T, doc []byte, rp *replay) (Run, bool) {
	t.Helper()
	var want Run
	wantErr := json.Unmarshal(doc, &want)
	want.Cells = withSelectors(want.Cells)
	got, err := decodeRun(doc, rp)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("decodeRun(%q) error = %v, json.Unmarshal error = %v", doc, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() {
			t.Fatalf("decodeRun(%q) error %q, json.Unmarshal says %q", doc, err, wantErr)
		}
		return Run{}, false
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("decodeRun(%q) = %#v, json.Unmarshal gives %#v", doc, got, want)
	}
	return got, true
}

// checkRunEncodeAgainstStdlib holds appendRun to json.Marshal on one
// run: the same bytes, or both refuse — appendRun leaving dst as it was.
func checkRunEncodeAgainstStdlib(t *testing.T, r Run) {
	t.Helper()
	want, wantErr := json.Marshal(r)
	got, err := appendRun([]byte("prefix"), r)
	if (err != nil) != (wantErr != nil) {
		t.Fatalf("appendRun(%#v) error = %v, json.Marshal error = %v", r, err, wantErr)
	}
	if err != nil {
		if err.Error() != wantErr.Error() || string(got) != "prefix" {
			t.Fatalf("appendRun(%#v) = %q, %q; json.Marshal says %q", r, got, err, wantErr)
		}
		return
	}
	if string(got) != "prefix"+string(want) {
		t.Fatalf("appendRun(%#v)\n got %s\nwant %s", r, got[len("prefix"):], want)
	}
}

func TestIndexCodecEdges(t *testing.T) {
	t.Parallel()
	for _, r := range goldenRuns() {
		checkRunEncodeAgainstStdlib(t, r)
		doc, _ := json.Marshal(r)
		checkRunDecodeAgainstStdlib(t, doc, newReplay())
		if _, ok := decodeCanonicalRun(doc, newReplay()); !ok {
			t.Errorf("the canonical pass refuses its own encoder's document %s", doc)
		}
	}
	texts := []string{"", "plain", "a<b>&", `quo"te`, `back\slash`, "nl\n", "\x00", "é", " ", "\xff", strings.Repeat("x", 300)}
	floats := []float64{0, math.Copysign(0, -1), 1.5, 1e21, 1e-7, 5e-324, math.MaxFloat64, math.NaN(), math.Inf(1), math.Inf(-1)}
	for _, s := range texts {
		for _, f := range floats {
			checkRunEncodeAgainstStdlib(t, Run{
				Path: s, Size: -1, ModTimeNS: math.MinInt64, IngestTimeNS: math.MaxInt64, Fingerprint: math.MaxUint64, Format: s, Records: -3,
				Cells: []Cell{
					{Experiment: s, Hash: s, Assignment: map[string]string{s: s, "k": s}, Response: s, N: -1, Mean: 1, Variance: f},
					{Experiment: "e", Assignment: map[string]string{}, Mean: f},
				},
			})
		}
	}
	checkRunEncodeAgainstStdlib(t, Run{Path: "empty-cells", Cells: []Cell{}})
	checkRunEncodeAgainstStdlib(t, Run{Pruned: true})

	// What the canonical pass must leave to json.Unmarshal, and what
	// json.Unmarshal makes of it.
	valid := `{"path":"a.jsonl","size":1,"mod_time_ns":2,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"cells":[{"experiment":"e","hash":"h","assignment":{"f":"x"},"response":"ms","n":2,"mean":1.5,"variance":0.25}]}`
	for _, doc := range []string{
		valid,
		valid + " ",
		" " + valid,
		valid + "}",
		valid[:len(valid)-1],
		strings.Replace(valid, `"size":1`, `"size":-0`, 1),
		strings.Replace(valid, `"size":1`, `"size":1.0`, 1),
		strings.Replace(valid, `"size":1`, `"size":9223372036854775808`, 1),
		strings.Replace(valid, `"fingerprint":4`, `"fingerprint":-4`, 1),
		strings.Replace(valid, `"fingerprint":4`, `"fingerprint":18446744073709551616`, 1),
		strings.Replace(valid, `"records":5`, `"records":5,"pruned":false`, 1),
		strings.Replace(valid, `"records":5`, `"records":5,"pruned":true`, 1),
		strings.Replace(valid, `"records":5`, `"records":5,"pruned":1`, 1),
		strings.Replace(valid, `"records":5`, `"records":5,"unknown":[1,{"x":null}]`, 1),
		strings.Replace(valid, `"path":"a.jsonl",`, ``, 1),
		strings.Replace(valid, `"path"`, `"PATH"`, 1),
		strings.Replace(valid, `"mean":1.5`, `"mean":1e999`, 1),
		strings.Replace(valid, `"mean":1.5`, `"mean":01`, 1),
		strings.Replace(valid, `{"f":"x"}`, `null`, 1),
		strings.Replace(valid, `{"f":"x"}`, `{}`, 1),
		strings.Replace(valid, `{"f":"x"}`, `{"f":"x","f":"y"}`, 1),
		strings.Replace(valid, `{"f":"x"}`, `{"f":"x",}`, 1),
		strings.Replace(valid, `{"f":"x"}`, `{"f":"a<b"}`, 1),
		strings.Replace(valid, `{"f":"x"}`, `{"f":"a<b}]"}`, 1),
		strings.Replace(valid, `"hash":"h"`, `"hash":"é"`, 1),
		strings.Replace(valid, `"cells":[`, `"cells":[{"experiment":"e","hash":"h","assignment":{"f":"x"},"response":"io","n":1,"mean":7,"variance":0},`, 1),
		strings.Replace(valid, `}]}`, `},]}`, 1),
		strings.Replace(valid, `}]}`, `}],"cells":null}`, 1),
		`{"path":"a.jsonl","size":1,"mod_time_ns":2,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"cells":[]}`,
		`{"path":"a.jsonl","size":1,"mod_time_ns":2,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"cells":null}`,
		`{"path":"t","size":1,"mod_time_ns":2,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"pruned":true}`,
		`{}`, `null`, `[]`, ``, `{"path":7}`,
	} {
		checkRunDecodeAgainstStdlib(t, []byte(doc), newReplay())
	}
}

// TestIndexCodecSharesRepeats pins what the canonical pass adds to
// json.Unmarshal's result: within one replay, cells of one identity —
// experiment, hash and assignment spelled the same — come back holding one
// assignment map, whichever run and whichever response they belong to, and
// a cell that differs in any of the three gets its own.
func TestIndexCodecSharesRepeats(t *testing.T) {
	t.Parallel()
	x, y := map[string]string{"f": "x"}, map[string]string{"f": "y"}
	first := Run{Path: "p", Format: "journal", Cells: withSelectors([]Cell{
		{Experiment: "e", Hash: "hx", Assignment: x, Response: "io", N: 1},
		{Experiment: "e", Hash: "hx", Assignment: x, Response: "ms", N: 1},
		{Experiment: "e", Hash: "hy", Assignment: y, Response: "io", N: 1},
		{Experiment: "e", Hash: "hn", Assignment: nil, Response: "io", N: 1},
		{Experiment: "e", Hash: "hn", Assignment: nil, Response: "ms", N: 1},
	})}
	second := Run{Path: "q", Format: "journal", Cells: withSelectors([]Cell{
		{Experiment: "e", Hash: "hx", Assignment: x, Response: "ms", N: 2, Mean: 3},
		{Experiment: "e", Hash: "hx", Assignment: y, Response: "ms", N: 1},  // same hash, another assignment
		{Experiment: "e2", Hash: "hx", Assignment: x, Response: "ms", N: 1}, // same assignment, another experiment
		{Experiment: "e", Hash: "hz", Assignment: x, Response: "ms", N: 1},  // same assignment, another hash
		{Experiment: "e", Hash: "he", Assignment: map[string]string{}, Response: "ms", N: 1},
	})}
	rp := newReplay()
	var got [2]Run
	for i, r := range []Run{first, second} {
		doc, err := appendRun(nil, r)
		if err != nil {
			t.Fatal(err)
		}
		var ok bool
		if got[i], ok = decodeCanonicalRun(doc, rp); !ok || !reflect.DeepEqual(got[i], r) {
			t.Fatalf("decodeCanonicalRun = %+v, %v; want %+v", got[i], ok, r)
		}
	}
	same := func(a, b Cell) bool { return sameMap(a.Assignment, b.Assignment) }
	p, q := got[0].Cells, got[1].Cells
	if !same(p[0], p[1]) || !same(p[0], q[0]) {
		t.Errorf("one identity does not hold one assignment map across responses and runs: %+v / %+v", p, q)
	}
	if same(p[1], p[2]) || same(p[2], q[1]) || same(p[0], q[2]) || same(p[0], q[3]) {
		t.Errorf("cells of different identities share an assignment map: %+v / %+v", p, q)
	}
	if p[3].Assignment != nil || p[4].Assignment != nil || q[4].Assignment == nil {
		t.Errorf("nil and empty assignments are not told apart: %+v / %+v", p, q)
	}
	if len(rp.cells) != 7 {
		t.Errorf("the replay holds %d identities, want 7", len(rp.cells))
	}
	// A dictionary of its own shares nothing with the first.
	doc, _ := appendRun(nil, first)
	if alone, _ := decodeCanonicalRun(doc, newReplay()); same(alone.Cells[0], p[0]) {
		t.Error("two replays share an assignment map")
	}
}

// FuzzIndexCodec holds the hand-written run document codec to its
// specification, encoding/json, on arbitrary input:
//
//  1. decodeRun and json.Unmarshal (into a zero Run) both fail, with one
//     message, or return deeply equal runs — tombstones, runs without
//     cells and empty cell lists told apart.
//  2. For every run that decodes, appendRun's bytes are json.Marshal's.
//  3. The same holds for a run cut from the raw input itself — invalid
//     UTF-8, control characters and non-finite aggregates included, which
//     no decoded run can carry.
//  4. What a document decodes to does not depend on what its replay has
//     seen: a fresh dictionary, one that replayed the whole seed corpus
//     first, and that one again now that it holds the input's own
//     identities all give equal runs.
func FuzzIndexCodec(f *testing.F) {
	var seeds [][]byte
	add := func(doc []byte) {
		seeds = append(seeds, doc)
		f.Add(doc)
	}
	for _, r := range goldenRuns() {
		doc, err := json.Marshal(r)
		if err != nil {
			f.Fatal(err)
		}
		add(doc)
	}
	valid := `{"path":"a.jsonl","size":1,"mod_time_ns":2,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"cells":[{"experiment":"e","hash":"h","assignment":{"f":"x"},"response":"io","n":1,"mean":7,"variance":0},{"experiment":"e","hash":"h","assignment":{"f":"x"},"response":"ms","n":2,"mean":1.5,"variance":0.25}]}`
	add([]byte(valid))
	add([]byte(valid + " "))
	add([]byte(strings.Replace(valid, `"records":5`, `"records":5,"pruned":true`, 1)))
	add([]byte(strings.Replace(valid, `"records":5`, `"records":-0,"pruned":false,"unknown":[1,{"x":null}]`, 1)))
	add([]byte(strings.Replace(valid, `{"f":"x"}`, `{"k":"v","k":"w","a<b":"<\n"}`, 1)))
	add([]byte(strings.ReplaceAll(valid, `{"f":"x"}`, `{"f":"x","response":"y"}`)))
	add([]byte(strings.Replace(valid, `"mean":1.5`, `"mean":1e999`, 1)))
	add([]byte(`{"path":"é","size":9223372036854775808,"fingerprint":18446744073709551615,"cells":[]}`))
	add([]byte(`{"path":"t","size":64,"mod_time_ns":5,"ingest_time_ns":6,"fingerprint":7,"format":"archive","records":2,"pruned":true}`))
	add([]byte("{\"path\":\"\xff\x00<>&\"}"))
	add([]byte{0x7f, 0xf0, 0, 0, 0, 0, 0, 1, 'n', 'a', 'n'})
	f.Fuzz(func(t *testing.T, data []byte) {
		if r, ok := checkRunDecodeAgainstStdlib(t, data, newReplay()); ok {
			checkRunEncodeAgainstStdlib(t, r)
		}
		loaded := newReplay()
		for _, doc := range seeds {
			decodeRun(doc, loaded)
		}
		checkRunDecodeAgainstStdlib(t, data, loaded)
		checkRunDecodeAgainstStdlib(t, data, loaded)
		var bits [8]byte
		copy(bits[:], data)
		half := string(data[:len(data)/2])
		rest := string(data[len(data)/2:])
		cell := Cell{
			Experiment: rest, Hash: half, Assignment: map[string]string{half: rest, rest: half}, Response: rest,
			N: len(data), Mean: 1, Variance: math.Float64frombits(binary.BigEndian.Uint64(bits[:])),
		}
		checkRunEncodeAgainstStdlib(t, Run{
			Path: half, Size: int64(len(data)), ModTimeNS: -int64(len(half)), Fingerprint: binary.BigEndian.Uint64(bits[:]),
			Format: rest, Records: len(rest), Pruned: len(data)%2 == 1,
			Cells: []Cell{cell, cell, {Experiment: half}}[:len(data)%4],
		})
	})
}

// TestRecordFingerprintPinned pins recordFingerprint to the formula it
// was introduced with — FNV-1a over the bytes of rec.Key(), then over the
// eight bytes of runstore.Fingerprint, low byte first. The value is
// persisted in every run and compared on re-ingest, so a change here
// would re-date every indexed run.
func TestRecordFingerprintPinned(t *testing.T) {
	t.Parallel()
	old := func(rec runstore.Record) uint64 {
		const prime64 = 1099511628211
		h := uint64(14695981039346656037)
		for _, b := range []byte(rec.Key()) {
			h = (h ^ uint64(b)) * prime64
		}
		m := runstore.Fingerprint(rec)
		for i := 0; i < 8; i++ {
			h = (h ^ (m >> (8 * i) & 0xff)) * prime64
		}
		return h
	}
	recs := []runstore.Record{
		{},
		mkRec("e", map[string]string{"f": "x"}, 0, map[string]float64{"ms": 1.5}),
		mkRec("exp/with/slashes", map[string]string{"f": "x", "g": "y"}, 12345, map[string]float64{"ms": 1.5, "io": 2}),
		mkRec("é", nil, -7, nil),
		{Experiment: "e", Hash: "not-the-assignment-hash", Replicate: math.MaxInt64, Assignment: map[string]string{"f": "x"}},
		{Experiment: "e", Hash: "h", Replicate: math.MinInt64},
	}
	for _, rec := range recs {
		if got, want := recordFingerprint(rec), old(rec); got != want {
			t.Errorf("recordFingerprint(%+v) = %#x, the formula it is persisted under gives %#x", rec, got, want)
		}
	}
	// One value spelled out, so the formula cannot drift together with its
	// reimplementation above.
	if got := recordFingerprint(recs[1]); got != 0xcac27dc4896e20ac {
		t.Errorf("recordFingerprint(%+v) = %#x, want the pinned 0xcac27dc4896e20ac", recs[1], got)
	}
	if n := testing.AllocsPerRun(100, func() { recordFingerprint(recs[2]) }); n != 0 {
		t.Errorf("recordFingerprint allocates %v time(s) per record, want 0", n)
	}
}

// TestEncodeIndexFrameIsOneAllocation guards the append-style encoder: an
// ordinary run's frame is built in the buffer it was sized for.
func TestEncodeIndexFrameIsOneAllocation(t *testing.T) {
	r := goldenRuns()[1]
	if n := testing.AllocsPerRun(100, func() {
		if _, err := encodeIndexFrame(r); err != nil {
			t.Fatal(err)
		}
	}); n != 1 {
		t.Errorf("encodeIndexFrame allocates %v time(s) per run, want 1", n)
	}
	frame, _ := encodeIndexFrame(r)
	doc, _ := json.Marshal(r)
	if !bytes.HasSuffix(frame, doc) {
		t.Errorf("frame does not end in json.Marshal's document")
	}
}
