package warehouse

import (
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
// show.
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
	x, err := openIndex(path)
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
