package runstore

import (
	"bytes"
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"strings"
	"testing"

	"repro/internal/framelog"
)

// resumeJournal writes the journal a resume opens: cells × reps records
// of one experiment shaped like the benchmark's (a one-factor assignment,
// two responses), in the scheduler's cell-major order — or, with
// twoWorkers, in the order two workers can finish them in, each adjacent
// pair of units landing either way round, so a cell's replicates
// interleave with the next cell's at its boundary.
func resumeJournal(tb testing.TB, path string, cells, reps int, twoWorkers bool) {
	tb.Helper()
	recs := make([]Record, 0, cells*reps)
	for c := 0; c < cells; c++ {
		a := map[string]string{"cell": fmt.Sprintf("c%04d", c)}
		hash := AssignmentHash(a)
		for r := 0; r < reps; r++ {
			recs = append(recs, Record{
				Experiment: "synthetic", Row: c, Replicate: r, Hash: hash, Assignment: a,
				Responses: map[string]float64{"io": float64(c*reps+r) / 7, "ms": 1 + float64(r)/3},
			})
		}
	}
	if twoWorkers {
		rng := rand.New(rand.NewPCG(1, 2))
		for i := 0; i+1 < len(recs); i += 2 {
			if rng.IntN(2) == 1 {
				recs[i], recs[i+1] = recs[i+1], recs[i]
			}
		}
	}
	b, err := EncodeBatch(recs)
	if err != nil {
		tb.Fatal(err)
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// TestOpenAllocsPerRecord holds a journal's open to what a record cannot
// share with the replicate before it — its responses map, little else:
// the decoder hands a cell's experiment, hash and assignment map on from
// record to record, and the index is built once after the replay. A
// fresh string and two maps per record, and an index that grows key by
// key, measured 6.0 allocations per record.
func TestOpenAllocsPerRecord(t *testing.T) {
	const cells, reps = 300, 10
	for _, twoWorkers := range []bool{false, true} {
		t.Run(fmt.Sprintf("twoWorkers=%v", twoWorkers), func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "resume.jsonl")
			resumeJournal(t, path, cells, reps, twoWorkers)
			perOpen := testing.AllocsPerRun(5, func() {
				j, err := Open(path)
				if err != nil {
					t.Fatal(err)
				}
				if j.Len() != cells*reps {
					t.Fatalf("Len = %d, want %d", j.Len(), cells*reps)
				}
				j.Close()
			})
			if perRecord := perOpen / (cells * reps); perRecord > 3 {
				t.Errorf("Open allocates %.2f times per record, want at most 3", perRecord)
			}
		})
	}
}

// BenchmarkJournalOpen is the store half of a resume: opening the
// benchmark-shaped 3 000-record journal, replay and index.
func BenchmarkJournalOpen(b *testing.B) {
	path := filepath.Join(b.TempDir(), "resume.jsonl")
	resumeJournal(b, path, 300, 10, true)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		j.Close()
	}
}

// TestOpenDerivesAMissingHash: a stored line without "hash" is served
// under the hash of its assignment, as every other reader serves it
// (docs/FORMAT.md §1), so a resume finds the unit instead of running it
// again.
func TestOpenDerivesAMissingHash(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	line := `{"experiment":"e","row":0,"replicate":0,"assignment":{"f":"x"},"responses":{"ms":1}}` + "\n"
	if err := os.WriteFile(path, []byte(line), 0o644); err != nil {
		t.Fatal(err)
	}
	a := map[string]string{"f": "x"}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	got, ok := j.Lookup("e", AssignmentHash(a), 0)
	if !ok {
		t.Fatal("Lookup under the derived hash misses")
	}
	if _, ok := j.Lookup("e", "", 0); ok {
		t.Error("Lookup under the empty hash hits")
	}
	want, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(want) != 1 || !reflect.DeepEqual(got, want[0]) {
		t.Errorf("Open serves %+v, LoadRecords %+v", got, want)
	}
	if n := j.ReplicateCount("e", AssignmentHash(a)); n != 1 {
		t.Errorf("ReplicateCount = %d, want 1", n)
	}
}

// TestOpenSharesOnlyWhatIsTheSame: records of one cell share their
// assignment map, and a hand-edited record that keeps its predecessor's
// hash but not its assignment gets a map of its own.
func TestOpenSharesOnlyWhatIsTheSame(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	lines := `{"experiment":"e","row":0,"replicate":0,"hash":"h1","assignment":{"f":"x"},"responses":{"ms":1}}
{"experiment":"e","row":0,"replicate":1,"hash":"h1","assignment":{"f":"x"},"responses":{"ms":2}}
{"experiment":"e","row":0,"replicate":2,"hash":"h1","assignment":{"f":"y"},"responses":{"ms":3}}
{"experiment":"e","row":0,"replicate":3,"hash":"h1","assignment":{"f":"y","g":"z"},"responses":{"ms":4}}
{"experiment":"e","row":0,"replicate":4,"hash":"h1","assignment":{},"responses":null}
{"experiment":"e","row":0,"replicate":5,"hash":"h1","assignment":null,"responses":{}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	recs, err := Collect(j.Scan())
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Fatalf("Open serves\n%+v\nLoadRecords\n%+v", recs, want)
	}
	same := func(a, b map[string]string) bool {
		return reflect.ValueOf(a).UnsafePointer() == reflect.ValueOf(b).UnsafePointer()
	}
	if !same(recs[0].Assignment, recs[1].Assignment) {
		t.Error("two replicates of one cell do not share their assignment map")
	}
	for i := 2; i < len(recs); i++ {
		if recs[i].Assignment != nil && same(recs[i-1].Assignment, recs[i].Assignment) {
			t.Errorf("replicate %d shares the map of %v with %v", i, recs[i-1].Assignment, recs[i].Assignment)
		}
	}
}

// TestJournalKeyIdentity: the journal keys a record as Key spells it, so
// two records whose names hold '/' and whose Key strings are equal are
// one unit, the later one winning — as every file reader folds them.
func TestJournalKeyIdentity(t *testing.T) {
	path := filepath.Join(t.TempDir(), "j.jsonl")
	lines := `{"experiment":"a/b","row":0,"replicate":0,"hash":"c","assignment":null,"responses":{"ms":1}}
{"experiment":"a","row":0,"replicate":0,"hash":"b","assignment":null,"responses":{"ms":2}}
{"experiment":"a","row":0,"replicate":0,"hash":"b/c","assignment":null,"responses":{"ms":3}}
`
	if err := os.WriteFile(path, []byte(lines), 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := Open(path)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	if j.Len() != 2 {
		t.Errorf("Len = %d, want 2", j.Len())
	}
	for _, exp := range [][2]string{{"a/b", "c"}, {"a", "b/c"}} {
		got, ok := j.Lookup(exp[0], exp[1], 0)
		if !ok || got.Responses["ms"] != 3 {
			t.Errorf("Lookup(%q, %q) = %+v, %v; want the last record", exp[0], exp[1], got, ok)
		}
	}
	if got, ok := j.Lookup("a", "b", 0); !ok || got.Responses["ms"] != 2 {
		t.Errorf(`Lookup("a", "b") = %+v, %v`, got, ok)
	}
	recs, err := Collect(j.Scan())
	if err != nil {
		t.Fatal(err)
	}
	want, err := LoadRecords(path)
	if err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(recs, want) {
		t.Errorf("Open serves\n%+v\nLoadRecords\n%+v", recs, want)
	}
}

// opened is everything a journal's open serves: the error's text, or
// Scan's records, Len, Torn, and Lookup and ReplicateCount for the key
// and cell of every record Scan served and for one of each that no
// record has.
type opened struct {
	err       string
	recs      []Record
	len       int
	torn      bool
	lookups   []Record
	found     []bool
	replicate []int
}

// openIn writes data to path and opens it in up to n sections of at least
// floor bytes. The file is written anew for each open: an open that cuts
// a torn tail or terminates a last line leaves a different file behind.
func openIn(t testing.TB, path string, data []byte, n int, floor int64) opened {
	t.Helper()
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	j, err := openJournal(path, n, floor)
	if err != nil {
		return opened{err: err.Error()}
	}
	defer j.Close()
	o := opened{len: j.Len(), torn: j.Torn()}
	if o.recs, err = Collect(j.Scan()); err != nil {
		t.Fatal(err)
	}
	for _, p := range append(o.recs, Record{Experiment: "absent", Hash: "0"}) {
		rec, ok := j.Lookup(p.Experiment, p.Hash, p.Replicate)
		o.lookups, o.found = append(o.lookups, rec), append(o.found, ok)
		o.replicate = append(o.replicate, j.ReplicateCount(p.Experiment, p.Hash))
	}
	return o
}

// checkSectionedOpen holds the open of data in up to 2 and 4 sections of
// at least floor bytes to the one-section open: the same error text, or
// the same records, Len, Torn, lookups and replicate counts.
func checkSectionedOpen(t testing.TB, path string, data []byte, floor int64) {
	t.Helper()
	want := openIn(t, path, data, 1, floor)
	for _, n := range []int{2, 4} {
		if got := openIn(t, path, data, n, floor); !reflect.DeepEqual(got, want) {
			t.Fatalf("in up to %d sections: error %q, %d record(s), Len %d, torn %v; in one: error %q, %d record(s), Len %d, torn %v",
				n, got.err, len(got.recs), got.len, got.torn, want.err, len(want.recs), want.len, want.torn)
		}
	}
}

// randomJournal is a journal of a few experiments, names with '/' among
// them, whose cells' replicates come one after another, one line longer
// than framelog's 64 KiB reader buffer in the middle, and, at the end,
// new writes of a tenth of the keys of the file's first half.
func randomJournal(t testing.TB, rng *rand.Rand) []byte {
	t.Helper()
	exps := []string{"e", "a/b", "sched"}
	var recs []Record
	for len(recs) < 1500 {
		exp := exps[rng.IntN(len(exps))]
		a := map[string]string{"cell": fmt.Sprintf("c%d", rng.IntN(50))}
		hash := AssignmentHash(a)
		if rng.IntN(10) == 0 {
			hash = "h/" + hash
		}
		for r := range 1 + rng.IntN(6) {
			recs = append(recs, Record{Experiment: exp, Row: rng.IntN(50), Replicate: r, Hash: hash, Assignment: a,
				Responses: map[string]float64{"ms": float64(rng.IntN(1e6)) / 1e3, "io": float64(rng.IntN(900))}})
		}
	}
	long := recs[len(recs)/2]
	long.Assignment = map[string]string{"cell": long.Assignment["cell"], "pad": strings.Repeat("p", 70<<10)}
	recs[len(recs)/2] = long
	half := len(recs) / 2
	for range half / 10 {
		rec := recs[rng.IntN(half)]
		rec.Responses = map[string]float64{"ms": -1}
		recs = append(recs, rec)
	}
	b, err := EncodeBatch(recs)
	if err != nil {
		t.Fatal(err)
	}
	return b.Bytes()
}

// TestOpenSectionedEqualsSerial: a journal opened in sections serves what
// it serves opened in one — over random journals whose cuts fall between
// a key's first write and the write that supersedes it, and between the
// replicates of one cell, with names that hold '/' and a line longer
// than the reader's buffer; clean, with a torn tail, with an
// unterminated last line, and with a corrupt line in the middle.
func TestOpenSectionedEqualsSerial(t *testing.T) {
	dir := t.TempDir()
	for seed := range uint64(4) {
		data := randomJournal(t, rand.New(rand.NewPCG(seed, 48)))
		const floor = 16 << 10
		bounds, err := framelog.Lines.Sections(bytes.NewReader(data), int64(len(data)), 4, floor)
		if err != nil {
			t.Fatal(err)
		}
		if len(bounds) != 5 {
			t.Fatalf("seed %d: %d-byte journal cuts into %d section(s), want 4", seed, len(data), len(bounds)-1)
		}
		checkCutsSplit(t, data, bounds)
		corrupt := slices.Clone(data)
		corrupt[lineStart(data, len(data)/3)] = 'x'
		for name, variant := range map[string][]byte{
			"clean":        data,
			"torn tail":    slices.Concat(data, []byte(`{"experiment":"e","ro`)),
			"unterminated": data[:len(data)-1],
			"corrupt":      corrupt,
		} {
			t.Run(fmt.Sprintf("seed=%d/%s", seed, name), func(t *testing.T) {
				checkSectionedOpen(t, filepath.Join(dir, "j.jsonl"), variant, floor)
			})
		}
	}
}

// checkCutsSplit fails unless some cut of bounds falls between a key's
// first write and a later one, and some between two replicates of a cell.
func checkCutsSplit(t *testing.T, data []byte, bounds []int64) {
	t.Helper()
	section := func(off int64) int {
		k, _ := slices.BinarySearch(bounds, off+1)
		return k - 1
	}
	first := map[string]int{} // key → the section of its first write
	cells := map[string]int{} // cell → the section of its first replicate
	var superseded, split bool
	off := int64(0)
	for line := range bytes.Lines(data) {
		rec, err := jsonCodec.read(bytes.TrimSuffix(line, []byte("\n")))
		if err != nil {
			t.Fatal(err)
		}
		s := section(off)
		if k, ok := first[rec.Key()]; ok {
			superseded = superseded || k < s
		} else {
			first[rec.Key()] = s
		}
		cell := CellKey(rec.Experiment, rec.Hash)
		if k, ok := cells[cell]; ok && rec.Replicate > 0 {
			split = split || k < s
		} else if !ok {
			cells[cell] = s
		}
		off += int64(len(line))
	}
	if !superseded || !split {
		t.Fatalf("no cut between a key's writes (%v) or a cell's replicates (%v)", superseded, split)
	}
}

// TestSectionedOpenAllocatesAsOneSection holds what an open in sections
// allocates to within 5 % of the one-section open of the same file. The
// bench's resume runs right after a forced collection, and fleet-collect
// then holds 1.8 MB live against a 4.19 MB goal (2 vCPUs). A version of
// this open that joined per-section slices with slices.Concat allocated
// 330 KB more per open and ran a GC cycle in 78 % of resumes (0.02–0.04
// per resume with one section), which made fleet-collect's resume_s
// worse in 5 of 6 pairs (+3.6 % to +13.5 %). With the sections' windows
// in one slice, BenchmarkJournalOpen at -cpu 2 allocates 15 KB more per
// open and fleet-collect's resumes ran 0.035–0.061 GC cycles each.
func TestSectionedOpenAllocatesAsOneSection(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's sync.Pool drops readers the sections would reuse")
	}
	path := filepath.Join(t.TempDir(), "resume.jsonl")
	resumeJournal(t, path, 300, 10, true)
	allocated := func(n int) uint64 {
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		for range 20 {
			j, err := openJournal(path, n, sectionFloor)
			if err != nil {
				t.Fatal(err)
			}
			j.Close()
		}
		runtime.ReadMemStats(&after)
		return after.TotalAlloc - before.TotalAlloc
	}
	allocated(4) // fills the scans' reader pool, from which each section takes its buffer
	one, sectioned := allocated(1), allocated(4)
	if float64(sectioned) > 1.05*float64(one) {
		t.Errorf("20 opens in 4 sections allocated %d bytes, in one %d: %+.1f %%, want at most +5 %%",
			sectioned, one, 100*(float64(sectioned)/float64(one)-1))
	}
}

// BenchmarkJournalOpenCompacted opens what fleet-collect resumes from:
// BenchmarkJournalOpen's records as two workers land them, merged and
// compacted.
func BenchmarkJournalOpenCompacted(b *testing.B) {
	dir := b.TempDir()
	src, path := filepath.Join(dir, "landed.jsonl"), filepath.Join(dir, "resume.jsonl")
	resumeJournal(b, src, 300, 10, true)
	if _, err := Merge([]string{src}, path); err != nil {
		b.Fatal(err)
	}
	if _, err := Compact(path, ""); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := Open(path)
		if err != nil {
			b.Fatal(err)
		}
		j.Close()
	}
}
