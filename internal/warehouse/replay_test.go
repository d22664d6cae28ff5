package warehouse

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/obs"
	"repro/internal/runstore"
)

// frameDoc frames one run document as it stands, canonical or not — how a
// hand-edited index comes to be.
func frameDoc(doc string) []byte {
	return indexFraming.Seal(append(indexFraming.Reserve(nil), doc...), 0)
}

// sameMap reports whether a and b are one map, not two equal ones.
func sameMap(a, b map[string]string) bool {
	return reflect.ValueOf(a).Pointer() == reflect.ValueOf(b).Pointer()
}

// TestReplayEqualsFrameByFrameUnmarshal holds the index replay to its
// specification: a multi-run index opened through openIndex — one
// dictionary across all its frames — equals, run for run, what
// json.Unmarshal makes of each frame on its own with the selectors filled
// in. The frames are chosen so that a dictionary that confused two
// identities, or carried anything over a frame it could not read, would
// show, and so that each canonical run's cells fill their slice exactly
// whether the frame before held more cells or fewer.
func TestReplayEqualsFrameByFrameUnmarshal(t *testing.T) {
	t.Parallel()
	cell := func(exp, hash, assignment, resp string) string {
		return `{"experiment":"` + exp + `","hash":"` + hash + `","assignment":` + assignment + `,"response":"` + resp + `","n":2,"mean":1.5,"variance":0.25}`
	}
	run := func(path string, mod string, cells ...string) string {
		return `{"path":"` + path + `","size":1,"mod_time_ns":` + mod + `,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"cells":[` + strings.Join(cells, ",") + `]}`
	}
	design := []string{
		cell("e", "hx", `{"f":"x"}`, "io"),
		cell("e", "hx", `{"f":"x"}`, "ms"),
		cell("e", "hy", `{"f":"y","g":"1"}`, "ms"),
		cell("e", "hn", `null`, "ms"),
		cell("e", "he", `{}`, "ms"),
		cell("e", "hr", `{"a":"1","response":"x"}`, "ms"), // a response key before the response key
	}
	docs := []string{
		run("r0.jsonl", "10", design...),
		run("r1.jsonl", "11", design...), // the same design in every run
		run("r2.jsonl", "12",
			cell("e", "hx", `{"f":"y"}`, "ms"),  // r0's hash, another assignment
			cell("e2", "hx", `{"f":"x"}`, "ms"), // r0's assignment, another experiment
			cell("e", "hn", `{}`, "ms"),         // null and {} are not each other
			cell("e", "he", `null`, "ms")),
		run("r3.jsonl", "13",
			cell("e", "hx", `{"f":"x","f":"y"}`, "ms"), // a repeated key keeps its last value
			cell("e", "hx", `{"f":"y"}`, "io")),
		// Hand-edited: not canonical, json.Unmarshal's to decode.
		`{"path":"r4.jsonl", "size":1,"mod_time_ns":14,"note":"edited","format":"journal","cells":[` + design[0] + `,` + design[2] + `]}`,
		run("r5.jsonl", "15", design...), // canonical again after the fallback
		run("r0.jsonl", "16", design[2]), // r0 superseded
		`{"path":"t.arch","size":64,"mod_time_ns":5,"ingest_time_ns":6,"fingerprint":7,"format":"archive","records":2,"pruned":true}`,
	}
	image := []byte(IndexMagic)
	want := make(map[string]Run)
	for _, doc := range docs {
		image = append(image, frameDoc(doc)...)
		var r Run
		if err := json.Unmarshal([]byte(doc), &r); err != nil {
			t.Fatalf("fixture document %s: %v", doc, err)
		}
		r.Cells = withSelectors(r.Cells)
		want[r.Path] = r
	}
	if _, canonical := decodeCanonicalRun([]byte(docs[4]), newReplay()); canonical {
		t.Fatal("the hand-edited frame does not take the fallback")
	}
	for _, i := range []int{0, 2, 3, 5} {
		if _, canonical := decodeCanonicalRun([]byte(docs[i]), newReplay()); !canonical {
			t.Fatalf("frame %d does not take the canonical pass", i)
		}
	}
	tail := frameDoc(run("torn.jsonl", "17", design...))
	image = append(image, tail[:len(tail)-3]...)

	path := filepath.Join(t.TempDir(), IndexFile)
	if err := os.WriteFile(path, image, 0o644); err != nil {
		t.Fatal(err)
	}
	x, err := openIndex(path, new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	defer x.Close()
	if !x.Torn() {
		t.Error("the torn tail was not reported")
	}
	if !reflect.DeepEqual(x.runs, want) {
		t.Errorf("replayed index diverges from frame-by-frame json.Unmarshal:\n got %+v\nwant %+v", x.runs, want)
	}
	if got, _, err := readFrames(image); err != nil || !reflect.DeepEqual(got, want) {
		t.Errorf("readFrames diverges from frame-by-frame json.Unmarshal (%v):\n got %+v\nwant %+v", err, got, want)
	}

	for _, path := range []string{"r0.jsonl", "r1.jsonl", "r2.jsonl", "r3.jsonl", "r5.jsonl"} {
		if cells := x.runs[path].Cells; len(cells) != cap(cells) {
			t.Errorf("%s: %d cells in a slice of capacity %d", path, len(cells), cap(cells))
		}
	}

	// Equal identities are one map across runs, unequal ones are not.
	r1, r2, r3, r5 := x.runs["r1.jsonl"].Cells, x.runs["r2.jsonl"].Cells, x.runs["r3.jsonl"].Cells, x.runs["r5.jsonl"].Cells
	for i := range r1 {
		if r1[i].Assignment != nil && !sameMap(r1[i].Assignment, r5[i].Assignment) {
			t.Errorf("cell %d of r1 and r5 hold two assignment maps for one identity", i)
		}
		if r1[i].selector != r5[i].selector {
			t.Errorf("cell %d: selectors %q and %q for one identity", i, r1[i].selector, r5[i].selector)
		}
	}
	if !sameMap(r1[0].Assignment, r1[1].Assignment) {
		t.Error("the two responses of one design cell hold two assignment maps")
	}
	if !sameMap(r2[0].Assignment, r3[1].Assignment) {
		t.Error("one identity met first in r2 and again in r3 holds two assignment maps")
	}
	if sameMap(r1[0].Assignment, r2[1].Assignment) || sameMap(r1[0].Assignment, r2[0].Assignment) || sameMap(r3[0].Assignment, r3[1].Assignment) {
		t.Error("cells of different identities share an assignment map")
	}
	if sameMap(r1[2].Assignment, x.runs["r4.jsonl"].Cells[1].Assignment) {
		t.Error("a frame json.Unmarshal decoded shares a map with the dictionary")
	}
}

// TestReplayVaryingResponses holds the replay to json.Unmarshal, and the
// seekable verdict on what it decodes to the count the runs call for,
// across runs whose responses and identities change from one run to the
// next within one replay: one identity's responses listed in another
// order, one identity's response renamed, responses dropped and added, and
// identities that follow one another in both orders — two of them naming
// one design cell under two hashes, and one whose hash holds '='.
func TestReplayVaryingResponses(t *testing.T) {
	t.Parallel()
	cell := func(hash, level, resp string) string {
		return `{"experiment":"e","hash":"` + hash + `","assignment":{"f":"` + level + `"},"response":"` + resp + `","n":2,"mean":1.5,"variance":0.25}`
	}
	run := func(cells ...string) []byte {
		return []byte(`{"path":"r.jsonl","size":1,"mod_time_ns":2,"ingest_time_ns":3,"fingerprint":4,"format":"journal","records":5,"cells":[` + strings.Join(cells, ",") + `]}`)
	}
	docs := [][]byte{
		run(cell("hx", "x", "io"), cell("hx", "x", "ms"), cell("hy", "y", "io"), cell("hy", "y", "ms")),
		run(cell("hx", "x", "ms"), cell("hx", "x", "io"), cell("hy", "y", "io"), cell("hy", "y", "ms")),   // hx's responses swapped
		run(cell("hx", "x", "io"), cell("hx", "x", "rows"), cell("hy", "y", "io"), cell("hy", "y", "ms")), // hx's ms renamed
		run(cell("hx", "x", "io"), cell("hx", "x", "ms"), cell("hy", "y", "io"), cell("hy", "y", "ms")),   // and back
		run(cell("hx", "x", "ms"), cell("hy", "y", "io"), cell("hy", "y", "ms"), cell("hy", "y", "rows")), // one fewer, one more
		run(cell("hy", "y", "io"), cell("hx", "x", "io")),                                                 // the identities the other way round
		run(cell("hx", "x", "io"), cell("hy", "y", "io")),                                                 // and again the first way
		run(cell("hx", "x", "io"), cell("hz", "x", "ms")),                                                 // one design cell, two hashes
		run(cell("hx", "x", "ms"), cell("hz", "x", "io")),
		run(cell("hx", "x", "io"), cell("h=", "y", "io")),
		run(cell("hx", "x", "io"), cell("hx", "x", "ms"), cell("hy", "y", "io"), cell("hy", "y", "ms")),
	}
	rp := newReplay()
	seekables := 0
	for _, doc := range docs {
		if _, canonical := decodeCanonicalRun(doc, newReplay()); !canonical {
			t.Fatalf("%s does not take the canonical pass", doc)
		}
		if r, ok := checkRunDecodeAgainstStdlib(t, doc, rp); ok && seekable(r.Cells) {
			seekables++
		}
	}
	if seekables != 7 {
		t.Errorf("%d of the runs are seekable, want 7", seekables)
	}
}

// TestHandBuiltRunIsFoundBySelectorAndHash pins the other way into the
// index: a Run built by hand and Put carries no selector, and is still
// found by its assignment string and by its hash — before a reopen and
// after — while the caller's cells are left as they were.
func TestHandBuiltRunIsFoundBySelectorAndHash(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	w := openTest(t, root)
	a := map[string]string{"g": "1", "f": "x"}
	built := Run{Path: "hand.jsonl", ModTimeNS: 1, Format: "journal", Records: 2, Cells: []Cell{
		{Experiment: "e", Hash: runstore.AssignmentHash(a), Assignment: a, Response: "ms", N: 2, Mean: 3, Variance: 1},
		{Experiment: "e", Hash: "other", Assignment: nil, Response: "ms", N: 1, Mean: 4},
	}}
	if err := w.idx.Put(built); err != nil {
		t.Fatal(err)
	}
	if built.Cells[0].selector != "" {
		t.Error("Put wrote into the caller's cells")
	}
	check := func(w *Warehouse) {
		t.Helper()
		for _, sel := range []string{"f=x g=1", runstore.AssignmentHash(a)} {
			res, err := w.Query(Request{Kind: KindHistory, Cell: sel})
			if err != nil || len(res.History) != 1 || res.History[0].Mean != 3 {
				t.Errorf("history of %q = %+v, %v; want the hand-built cell", sel, res, err)
			}
			reg, err := w.Query(Request{Kind: KindRegressions, Cell: sel})
			if err != nil || len(reg.Regressions) != 0 {
				t.Errorf("regressions of %q = %+v, %v", sel, reg, err)
			}
		}
		if res, err := w.Query(Request{Kind: KindHistory, Cell: "g=1 f=x"}); err != nil || len(res.History) != 0 {
			t.Errorf("a selector out of canonical order matched: %+v, %v", res, err)
		}
	}
	check(w)
	w.Close()
	check(openTest(t, root))
}

// TestReplayPredictsIdentities pins what the replay's predictions save on
// the benchmark's index of 25 runs of one design: the first frame walks
// each of its 100 design cells' identities once, and every later frame
// finds all its cells' identities by prediction — no search, no walk. It
// also holds every replayed run's cells to exactly their length: a list
// sized from the frame before is copied when it does not fit.
func TestReplayPredictsIdentities(t *testing.T) {
	root := benchFixture(t, benchRuns, benchReps)
	w, err := Open(root, Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := w.Refresh(); err != nil || rs.Ingested != benchRuns {
		t.Fatalf("Refresh = %+v, %v", rs, err)
	}
	w.Close()
	data, err := os.ReadFile(filepath.Join(root, IndexFile))
	if err != nil {
		t.Fatal(err)
	}
	steps := countIdentitySteps(t)
	runs := make(map[string]Run)
	visit := collectRuns(runs, nil)
	var first identityCounts
	frames := 0
	if _, _, err := indexFraming.ScanFile(bytes.NewReader(data), func(payload []byte, off, end int64) error {
		err := visit(payload, off, end)
		if frames++; frames == 1 {
			first = *steps
		}
		return err
	}); err != nil {
		t.Fatal(err)
	}
	if frames != benchRuns || len(runs) != benchRuns {
		t.Fatalf("%d frames, %d runs; want %d of each", frames, len(runs), benchRuns)
	}
	if first.walks != benchCells || steps.walks != benchCells {
		t.Errorf("the first frame walked %d identities, all %d frames %d; want %d and %d", first.walks, frames, steps.walks, benchCells, benchCells)
	}
	if steps.searches != first.searches {
		t.Errorf("frames after the first searched for %d identities, want none", steps.searches-first.searches)
	}
	for path, r := range runs {
		if len(r.Cells) != benchCells*2 || len(r.Cells) != cap(r.Cells) {
			t.Errorf("run %s holds %d cells in a slice of capacity %d; want %d in %d", path, len(r.Cells), cap(r.Cells), benchCells*2, benchCells*2)
		}
	}
}

// TestOpenAllocsPerCell holds Open to what a replay keeps: per run a path
// and a cell slice, per design cell — one in fifty of the cells here — an
// identity built once. That measures 0.14 allocations per cell; the replay
// that built a hash string, an assignment map and its value for every cell
// of every run measured 3.5. The ceiling is where a map per cell per run
// cannot come back unnoticed.
func TestOpenAllocsPerCell(t *testing.T) {
	root := benchFixture(t, benchRuns, benchReps)
	w, err := Open(root, Options{Metrics: obs.NewRegistry()})
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := w.Refresh(); err != nil || rs.Ingested != benchRuns {
		t.Fatalf("Refresh = %+v, %v", rs, err)
	}
	w.Close()
	cells := 0
	perOpen := testing.AllocsPerRun(5, func() {
		w, err := Open(root, Options{Metrics: obs.NewRegistry()})
		if err != nil {
			t.Fatal(err)
		}
		cells = 0
		for _, r := range w.Runs() {
			cells += len(r.Cells)
		}
		w.Close()
	})
	if cells != benchRuns*benchCells*2 {
		t.Fatalf("the reopened index holds %d cells, want %d", cells, benchRuns*benchCells*2)
	}
	if perCell := perOpen / float64(cells); perCell > 0.5 {
		t.Errorf("Open allocates %.2f times per cell, want at most 0.5", perCell)
	}
}
