package runstore

import (
	"fmt"
	"math/rand/v2"
	"os"
	"path/filepath"
	"reflect"
	"testing"
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
