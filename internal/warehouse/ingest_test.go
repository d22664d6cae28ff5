package warehouse

import (
	"bytes"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
)

// appendStore writes frames, in order and without deduplication, into a
// new store of the format ext names — so a key appended twice is a
// superseded frame on disk, in every format. An .arch store is written by
// the live archive, an .archz one by the bulk writer behind Merge, handed
// the frames as Append would store them: the same file either way. A
// .binj is the binary magic and the frames EncodeBatchBinary makes: Merge,
// the one writer of binary record files, would drop the superseded ones.
func appendStore(t *testing.T, path, ext string, frames []runstore.Record) {
	t.Helper()
	var s interface {
		Append(runstore.Record) error
		Close() error
	}
	var err error
	switch ext {
	case ".jsonl":
		s, err = runstore.Open(path)
	case ".binj":
		b, err := runstore.EncodeBatchBinary(frames)
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(path, append([]byte(runstore.BinaryMagic), b.Bytes()...), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	case ".arch":
		s, err = archivestore.Open(path)
	case ".archz":
		normalized := make([]runstore.Record, len(frames))
		for i, rec := range frames {
			if normalized[i], err = runstore.NormalizeAppend(rec); err != nil {
				t.Fatal(err)
			}
		}
		if err := archivestore.Write(path, runstore.Seq(normalized), ""); err != nil {
			t.Fatal(err)
		}
		return
	}
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range frames {
		if err := s.Append(rec); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
}

// awkwardFrames is a frame sequence with everything the single-pass
// ingest has to restate about last-wins: replicates superseded with the
// same and with a different response set (one dropped, one added), the
// superseded replicate being its cell's first (whose assignment names the
// cell) or not, two experiments sharing an assignment, cells whose stored
// hash is not their assignment's, cells that tie on everything the cell
// sort compares, and single-replicate cells.
func awkwardFrames(rng *rand.Rand) []runstore.Record {
	var frames []runstore.Record
	levels := []string{"a", "b", "c"}
	for i := 0; i < 60; i++ {
		assign := map[string]string{"f": levels[rng.Intn(len(levels))], "g": fmt.Sprint(rng.Intn(2))}
		resps := map[string]float64{"ms": rng.NormFloat64()*10 + 100}
		switch rng.Intn(3) {
		case 0:
			resps["io"] = float64(rng.Intn(1000))
		case 1:
			resps["rows"] = rng.Float64()
			delete(resps, "ms")
		}
		frames = append(frames, mkRec([]string{"exp0", "exp1"}[rng.Intn(2)], assign, rng.Intn(4), resps))
	}
	// One stored hash under two assignments: the cell keeps the assignment
	// of its first replicate's *last* frame.
	for i, f := range []string{"first", "second", "third"} {
		frames = append(frames, runstore.Record{
			Experiment: "exp0", Hash: "stored-not-derived", Replicate: i % 2,
			Assignment: map[string]string{"f": f}, Responses: map[string]float64{"ms": float64(i)},
		})
	}
	// Twenty cells that tie on (experiment, assignment, response): only
	// the sort's own order separates them.
	for i := 0; i < 20; i++ {
		frames = append(frames, runstore.Record{
			Experiment: "exp1", Hash: fmt.Sprintf("tie-%02d", rng.Intn(100)), Replicate: 0,
			Assignment: map[string]string{"f": "tied"}, Responses: map[string]float64{"ms": float64(i)},
		})
	}
	frames = append(frames, mkRec("exp0", map[string]string{"f": "once"}, 0, map[string]float64{"ms": 1}))
	return frames
}

// checkIngestAgainstScanFile holds the single-pass ingest of one source
// to the route it replaced: aggregate runstore.ScanFile's distinct
// last-wins sequence (recomputeCells, the property test's oracle) and XOR
// its records' fingerprints. Bit for bit.
func checkIngestAgainstScanFile(t *testing.T, root, rel string) Run {
	t.Helper()
	abs := filepath.Join(root, rel)
	st, err := os.Stat(abs)
	if err != nil {
		t.Fatal(err)
	}
	got, err := ingest(root, rel, st)
	if err != nil {
		t.Fatalf("ingest(%s): %v", rel, err)
	}
	want := Run{Path: rel, Size: st.Size(), ModTimeNS: st.ModTime().UnixNano(), Format: formatName(rel), Cells: recomputeCells(t, abs)}
	for rec, err := range runstore.ScanFile(abs) {
		if err != nil {
			t.Fatal(err)
		}
		want.Records++
		want.Fingerprint ^= recordFingerprint(rec)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: single-pass ingest diverges from the ScanFile route:\n got %+v\nwant %+v", rel, got, want)
	}
	return got
}

func TestIngestEqualsScanFileRoute(t *testing.T) {
	t.Parallel()
	for i, ext := range []string{".jsonl", ".binj", ".arch", ".archz"} {
		t.Run(ext, func(t *testing.T) {
			t.Parallel()
			root := t.TempDir()
			rel := "run" + ext
			frames := awkwardFrames(rand.New(rand.NewSource(int64(7 + i))))
			appendStore(t, filepath.Join(root, rel), ext, frames)
			whole := checkIngestAgainstScanFile(t, root, rel)
			if whole.Records >= len(frames) || len(whole.Cells) == 0 {
				t.Fatalf("fixture has no superseded frame: %d frame(s), %d record(s)", len(frames), whole.Records)
			}

			// A torn tail: the last frame cut short (an archive also loses
			// its footer). Both routes drop it.
			abs := filepath.Join(root, rel)
			if err := os.Truncate(abs, whole.Size-7); err != nil {
				t.Fatal(err)
			}
			if torn := checkIngestAgainstScanFile(t, root, rel); torn.Records > whole.Records {
				t.Fatalf("torn source holds %d record(s), whole one %d", torn.Records, whole.Records)
			}
		})
	}
}

// TestIngestHandEditedJournal covers what only a JSONL source can hold:
// lines json.Unmarshal decodes but the canonical pass refuses, a line
// without its hash (derived, as Read derives it), and both superseding —
// and superseded by — canonical lines.
func TestIngestHandEditedJournal(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	hx := runstore.AssignmentHash(map[string]string{"f": "x"})
	lines := []string{
		`{"experiment":"e","row":0,"replicate":0,"hash":"` + hx + `","assignment":{"f":"x"},"responses":{"ms":1.5,"io":3}}`,
		`{"experiment":"e","row":0,"replicate":1,"assignment":{"f":"x"},"responses":{"ms":2.5}}`,                                         // no hash
		` { "responses" : {"ms": 9.25}, "replicate":0, "experiment":"e", "hash":"` + hx + `", "assignment":{"f":"x"}, "note":"edited" }`, // supersedes line 1, drops io
		`{"experiment":"e","row":1,"replicate":0,"assignment":{"f":"y"},"responses":{"ms":4}}`,
		`{"experiment":"e","row":1,"replicate":0,"hash":"` + runstore.AssignmentHash(map[string]string{"f": "y"}) + `","assignment":{"f":"y"},"responses":{"ms":5,"rows":1e3}}`, // supersedes the hashless line
		`{"experiment":"e2","row":0,"replicate":0,"hash":"` + hx + `","assignment":{"f":"x"},"responses":{"ms":7}}`,
	}
	write := func(rel string, lines ...string) {
		t.Helper()
		if err := os.WriteFile(filepath.Join(root, rel), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
	}
	write("edited.jsonl", append(lines, `{"experiment":"e","row":2,"repl`)...) // and a torn tail
	run := checkIngestAgainstScanFile(t, root, "edited.jsonl")
	if run.Records != 4 {
		t.Fatalf("records = %d, want 4 distinct", run.Records)
	}

	// A corrupt interior frame is an error naming the source, from both
	// routes — never a silently shorter run.
	write("corrupt.jsonl", lines[0], `{"experiment":"e","row":`, lines[1], "")
	st, err := os.Stat(filepath.Join(root, "corrupt.jsonl"))
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ingest(root, "corrupt.jsonl", st); err == nil || !strings.Contains(err.Error(), "ingesting corrupt.jsonl") || !strings.Contains(err.Error(), "corrupt journal line at byte") {
		t.Fatalf("ingest of a corrupt interior line: %v", err)
	}
	for _, err := range runstore.ScanFile(filepath.Join(root, "corrupt.jsonl")) {
		if err == nil {
			t.Fatal("ScanFile yielded a record from a journal with a corrupt interior line")
		}
	}
}

// same holds the field-pass ingest of one source to the pass it replaced
// (referenceIngest: a runstore.Record per frame): the same Run, bit for
// bit — nil and empty told apart — or the same refusal in the same words.
// It returns the run.
func same(t *testing.T, root, rel string) Run {
	t.Helper()
	st, err := os.Stat(filepath.Join(root, rel))
	if err != nil {
		t.Fatal(err)
	}
	got, err := ingest(root, rel, st)
	want, werr := referenceIngest(root, rel, st)
	if (err != nil) != (werr != nil) || err != nil && err.Error() != werr.Error() {
		t.Fatalf("%s: ingest fails with %v, the reference with %v", rel, err, werr)
	}
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("%s: ingest diverges from the reference:\n got %+v\nwant %+v", rel, got, want)
	}
	return got
}

// TestIngestEqualsReference holds ingest to referenceIngest (same) source
// for source, over every format and a range of seeds, whole, torn at
// every length a tail can be cut to, and with a frame in the middle
// damaged; and over the shapes the seeded fixtures lack: replicate numbers
// sparse and huge, one cell of 5 000 replicates, every cell's replicate 0
// before any cell's replicate 1 (no frame in the cell of the frame
// before), and a source with no response at all, whose run has nil cells.
func TestIngestEqualsReference(t *testing.T) {
	t.Parallel()
	var sparse, wide, major, silent []runstore.Record
	for i, rep := range []int{0, 7, 1 << 20, 1 << 31, 1 << 40} {
		for _, f := range []string{"a", "b"} {
			sparse = append(sparse, mkRec("exp0", map[string]string{"f": f}, rep, map[string]float64{"ms": float64(i), "io": float64(rep % 1000)}))
		}
	}
	sparse = append(sparse, mkRec("exp0", map[string]string{"f": "a"}, 1<<40, map[string]float64{"ms": -1})) // supersedes a huge replicate
	for rep := 0; rep < 5000; rep++ {
		wide = append(wide, mkRec("exp0", map[string]string{"f": "wide"}, rep, map[string]float64{"ms": float64(rep%97) / 8}))
	}
	for rep := 0; rep < 3; rep++ {
		for c := 0; c < 20; c++ {
			major = append(major, mkRec("exp0", map[string]string{"f": fmt.Sprint(c)}, rep, map[string]float64{"ms": float64(c*rep) + 0.5, "io": float64(rep)}))
		}
	}
	for rep := 0; rep < 3; rep++ {
		silent = append(silent,
			mkRec("exp0", map[string]string{"f": "x"}, rep, nil),
			runstore.Record{Experiment: "exp1", Hash: "h", Replicate: rep, Responses: map[string]float64{}})
	}
	for i, ext := range []string{".jsonl", ".binj", ".arch", ".archz"} {
		t.Run(ext, func(t *testing.T) {
			t.Parallel()
			root := t.TempDir()
			for seed := 0; seed < 4; seed++ {
				rel := fmt.Sprintf("run-%d%s", seed, ext)
				frames := awkwardFrames(rand.New(rand.NewSource(int64(40 + 10*i + seed))))
				// Maps that are null, and maps that are empty: the cell keeps
				// which, and the index writes it.
				frames = append(frames,
					runstore.Record{Experiment: "exp2", Hash: "null-maps", Replicate: seed},
					runstore.Record{Experiment: "exp2", Hash: "empty-maps", Replicate: seed, Assignment: map[string]string{}, Responses: map[string]float64{}})
				appendStore(t, filepath.Join(root, rel), ext, frames)
				same(t, root, rel)
			}
			whole, err := os.ReadFile(filepath.Join(root, "run-0"+ext))
			if err != nil {
				t.Fatal(err)
			}
			for cut := 1; cut <= 200; cut += 7 { // through the last frame and into the one before
				if err := os.WriteFile(filepath.Join(root, "torn"+ext), whole[:len(whole)-cut], 0o644); err != nil {
					t.Fatal(err)
				}
				same(t, root, "torn"+ext)
			}
			damaged := bytes.Clone(whole)
			for i := len(damaged) / 2; i < len(damaged)/2+40; i++ {
				damaged[i] ^= 0x55
			}
			if err := os.WriteFile(filepath.Join(root, "damaged"+ext), damaged, 0o644); err != nil {
				t.Fatal(err)
			}
			same(t, root, "damaged"+ext)

			for name, frames := range map[string][]runstore.Record{"sparse": sparse, "wide": wide, "replicate-major": major, "silent": silent} {
				appendStore(t, filepath.Join(root, name+ext), ext, frames)
				if run := same(t, root, name+ext); name == "silent" && run.Cells != nil {
					t.Errorf("%s: a source without a response ingests to cells %#v, want nil", name+ext, run.Cells)
				}
			}
		})
	}
	t.Run("hand-edited", func(t *testing.T) {
		t.Parallel()
		root := t.TempDir()
		lines := []string{
			`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"g":"1","f":"2"},"responses":{"ms":1.5,"io":3}}`,  // descending keys
			`{"experiment":"e","row":0,"replicate":1,"hash":"h","assignment":{"f":"2","f":"3"},"responses":{"ms":2,"ms":2.5}}`,  // repeated keys
			`{"experiment":"e","row":0,"replicate":2,"assignment":{"f":"2"},"responses":{"m\u0073":-0}}`,                        // no hash, an escape, -0
			` {"replicate":3, "experiment":"e", "hash":"h", "assignment":{"f":"<2>"}, "responses":{"ms":1e-7}, "unit":"ms"}`,    // whitespace, raw HTML, an unknown field
			`{"experiment":"e","row":1,"replicate":0,"hash":"k","assignment":null,"responses":{}}`,                              // null and {}
			`{"experiment":"e","row":1,"replicate":0,"hash":"k","assignment":{},"responses":null}`,                              // superseded by {} and null
			`{"experiment":"e","row":0,"replicate":0,"hash":"h","assignment":{"f":"2","g":"1"},"responses":{"io":4,"ms":1.25}}`, // a canonical line supersedes the first
			`{"experiment":"e","row":2,"replicate":0,"hash":"x","assignment":{"f":"9"},"responses":{"ms":1,"ms":`,               // torn
		}
		if err := os.WriteFile(filepath.Join(root, "edited.jsonl"), []byte(strings.Join(lines, "\n")), 0o644); err != nil {
			t.Fatal(err)
		}
		same(t, root, "edited.jsonl")
		if err := os.WriteFile(filepath.Join(root, "corrupt.jsonl"), []byte(strings.Join(lines, "\n")+"\n"+lines[0]+"\n"), 0o644); err != nil {
			t.Fatal(err)
		}
		same(t, root, "corrupt.jsonl") // the torn line is now an interior one
	})
}

// steppingClock returns a clock that advances one second per reading, so
// the order Refresh reads it in is written into the index.
func steppingClock() func() time.Time {
	var n atomic.Int64
	return func() time.Time { return time.Unix(2000+n.Add(1), 0) }
}

// eightSources writes eight small sources, two per format, and returns
// their catalog (sorted) order.
func eightSources(t *testing.T, root string) []string {
	t.Helper()
	var rels []string
	for i := 0; i < 8; i++ {
		ext := []string{".jsonl", ".binj", ".arch", ".archz"}[i%4]
		rel := fmt.Sprintf("src-%d%s", i, ext)
		appendStore(t, filepath.Join(root, rel), ext, awkwardFrames(rand.New(rand.NewSource(int64(100 + i))))[:30+i])
		mod := baseTime.Add(time.Duration(8-i) * time.Minute) // run order is not catalog order
		if err := os.Chtimes(filepath.Join(root, rel), mod, mod); err != nil {
			t.Fatal(err)
		}
		rels = append(rels, rel)
	}
	return rels
}

// TestRefreshIndexBytesIndependentOfParallelism: sources are read on
// GOMAXPROCS goroutines, but the clock is read and the index written in
// catalog order, so the index file is the same bytes however many there
// are. Not parallel: it sets GOMAXPROCS.
func TestRefreshIndexBytesIndependentOfParallelism(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	src := t.TempDir()
	rels := eightSources(t, src)
	var first []byte
	for _, procs := range []int{1, 4} {
		runtime.GOMAXPROCS(procs)
		root := t.TempDir()
		for _, rel := range rels {
			if err := os.Link(filepath.Join(src, rel), filepath.Join(root, rel)); err != nil {
				t.Fatal(err)
			}
		}
		w, err := Open(root, Options{Metrics: obs.NewRegistry(), Clock: steppingClock()})
		if err != nil {
			t.Fatal(err)
		}
		rs, err := w.Refresh()
		if err != nil || rs.Ingested != len(rels) {
			t.Fatalf("GOMAXPROCS=%d: Refresh = %+v, %v", procs, rs, err)
		}
		for i, r := range w.idx.Runs() {
			if want := time.Unix(2000+int64(slices.Index(rels, r.Path))+1, 0).UnixNano(); r.IngestTimeNS != want {
				t.Errorf("GOMAXPROCS=%d: run %d (%s) ingested at %d, want the clock's reading for its catalog position, %d", procs, i, r.Path, r.IngestTimeNS, want)
			}
		}
		w.Close()
		idx, err := os.ReadFile(filepath.Join(root, IndexFile))
		if err != nil {
			t.Fatal(err)
		}
		if first == nil {
			first = idx
		} else if !bytes.Equal(idx, first) {
			t.Fatalf("warehouse.idx differs between GOMAXPROCS 1 and %d (%d vs %d bytes)", procs, len(first), len(idx))
		}
	}
}

// TestRefreshStopsAtFirstFailingSource: the third source in catalog order
// is corrupt. Refresh names it, leaves exactly the two before it indexed
// (a clock reading each), indexes none after it however far the readers
// ran ahead, and leaves no goroutine behind. Not parallel: it counts
// goroutines.
func TestRefreshStopsAtFirstFailingSource(t *testing.T) {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(4))
	root := t.TempDir()
	rels := eightSources(t, root)
	if err := os.WriteFile(filepath.Join(root, rels[2]), []byte("{\"experiment\":\n{\"experiment\":\"e\"}\n"), 0o644); err != nil {
		t.Fatal(err)
	}
	base := runtime.NumGoroutine()
	var readings atomic.Int64
	w, err := Open(root, Options{Metrics: obs.NewRegistry(), Clock: func() time.Time { return time.Unix(3000+readings.Add(1), 0) }})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	rs, err := w.Refresh()
	if err == nil || !strings.Contains(err.Error(), "ingesting "+rels[2]) {
		t.Fatalf("Refresh over a corrupt third source: %+v, %v", rs, err)
	}
	if n := runtime.NumGoroutine(); n > base {
		// Refresh waits for its readers; give the runtime's own goroutines
		// a moment before calling it a leak.
		deadline := time.Now().Add(5 * time.Second)
		for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
			time.Sleep(5 * time.Millisecond)
		}
		if n := runtime.NumGoroutine(); n > base {
			t.Errorf("%d goroutines alive after Refresh returned, started with %d — an ingest outlived it", n, base)
		}
	}
	if rs.Ingested != 2 || rs.Candidates != 8 || readings.Load() != 2 {
		t.Errorf("Refresh = %+v with %d clock reading(s); want 2 ingested of 8, 2 readings", rs, readings.Load())
	}
	var paths []string
	for _, r := range w.idx.Runs() {
		paths = append(paths, r.Path)
	}
	if len(paths) != 2 || slices.Index(paths, rels[0]) < 0 || slices.Index(paths, rels[1]) < 0 {
		t.Errorf("indexed after the failure: %v, want exactly %v", paths, rels[:2])
	}

	// Repaired, the next refresh picks up where that one stopped.
	appendStore(t, filepath.Join(root, "fixed"+filepath.Ext(rels[2])), filepath.Ext(rels[2]), awkwardFrames(rand.New(rand.NewSource(1)))[:10])
	if err := os.Rename(filepath.Join(root, "fixed"+filepath.Ext(rels[2])), filepath.Join(root, rels[2])); err != nil {
		t.Fatal(err)
	}
	if rs, err := w.Refresh(); err != nil || rs.Ingested != 6 || rs.Unchanged != 2 {
		t.Fatalf("Refresh after the repair = %+v, %v; want 6 ingested, 2 unchanged", rs, err)
	}
	checkAgainstRecompute(t, w)
}

// TestIngestObservesEverySource: warehouse_ingest_seconds gets one
// observation per ingested source, none for a source skipped on its stat.
func TestIngestObservesEverySource(t *testing.T) {
	t.Parallel()
	root := t.TempDir()
	eightSources(t, root)
	reg := obs.NewRegistry()
	w, err := Open(root, Options{Metrics: reg})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	for i := 0; i < 2; i++ { // the second refresh skips all eight
		if _, err := w.Refresh(); err != nil {
			t.Fatal(err)
		}
	}
	if n := reg.Histogram("warehouse_ingest_seconds", "", nil).Count(); n != 8 {
		t.Errorf("warehouse_ingest_seconds holds %d observation(s), want 8", n)
	}
}
