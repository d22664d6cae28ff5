package runstore_test

import (
	"cmp"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"slices"
	"testing"

	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
)

// writeRandomStore writes recs, in order and duplicates included, as a
// store file of the format ext names, with no fsync per record.
func writeRandomStore(t *testing.T, path string, recs []runstore.Record) {
	t.Helper()
	switch ext := filepath.Ext(path); ext {
	case archivestore.Ext, archivestore.ExtZ:
		if err := archivestore.Write(path, runstore.Seq(recs), ""); err != nil {
			t.Fatal(err)
		}
	default:
		if err := os.WriteFile(path, recordPathBytes(t, ext, recs), 0o644); err != nil {
			t.Fatal(err)
		}
	}
}

// TestPlanMergeMatchesReference holds Merge's index pass — sources read
// side by side, one fold over their entry lists, winners kept where they
// were read — to the serial map-of-entries pass it replaced: over random
// stores under all four at-rest extensions, 1–9 sources, keys superseded inside
// a source and across sources with agreeing and disagreeing measurements,
// sources already in canonical order and not, and a torn tail, at three
// GOMAXPROCS, the per-source winner lists agree entry for entry and the
// stats field for field, Conflicts in order.
func TestPlanMergeMatchesReference(t *testing.T) {
	exts := []string{".jsonl", runstore.BinaryExt, archivestore.Ext, archivestore.ExtZ}
	rng := rand.New(rand.NewSource(22))
	dir := t.TempDir()
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(0))
	conflicts, torn, superseded := 0, 0, 0
	for round := 0; round < 60; round++ {
		srcs := make([]string, 1+rng.Intn(9))
		rows := 1 + rng.Intn(12) // few rows: keys collide across sources
		for i := range srcs {
			var recs []runstore.Record
			for n := rng.Intn(40); n > 0; n-- {
				row := rng.Intn(rows)
				a := map[string]string{"cell": fmt.Sprint(row)}
				recs = append(recs, runstore.Record{
					Experiment: []string{"pa", "pb"}[rng.Intn(2)], Row: row, Replicate: rng.Intn(3),
					Hash: runstore.AssignmentHash(a), Assignment: a,
					Responses: map[string]float64{"ms": float64(1 + rng.Intn(3))},
				})
			}
			if rng.Intn(2) == 0 {
				// A shard's shape: canonical order, one record per key.
				slices.SortFunc(recs, func(a, b runstore.Record) int {
					return cmp.Or(cmp.Compare(a.Experiment, b.Experiment), cmp.Compare(a.Row, b.Row), cmp.Compare(a.Replicate, b.Replicate))
				})
				recs = slices.CompactFunc(recs, func(a, b runstore.Record) bool { return a.Key() == b.Key() })
			}
			srcs[i] = filepath.Join(dir, fmt.Sprintf("r%02d-s%d%s", round, i, exts[rng.Intn(len(exts))]))
			writeRandomStore(t, srcs[i], recs)
			if len(recs) > 0 && rng.Intn(4) == 0 {
				if err := os.Truncate(srcs[i], int64(len(mustRead(t, srcs[i]))-5)); err != nil {
					t.Fatal(err)
				}
			}
		}
		want, wantStats, err := runstore.ReferencePlanMerge(srcs)
		if err != nil {
			t.Fatal(err)
		}
		conflicts += len(wantStats.Conflicts)
		torn += wantStats.TornSources
		superseded += wantStats.Superseded
		for _, procs := range []int{1, 2, 8} {
			runtime.GOMAXPROCS(procs)
			got, gotStats, err := runstore.PlanMerge(srcs)
			if err != nil {
				t.Fatal(err)
			}
			for i := range srcs {
				if !slices.Equal(got[i], want[i]) {
					t.Fatalf("round %d, GOMAXPROCS %d, source %d (%s): winners\n%+v\nreference\n%+v", round, procs, i, srcs[i], got[i], want[i])
				}
			}
			if !slices.Equal(gotStats.Conflicts, wantStats.Conflicts) {
				t.Fatalf("round %d, GOMAXPROCS %d: conflicts\n%+v\nreference\n%+v", round, procs, gotStats.Conflicts, wantStats.Conflicts)
			}
			if gotStats.Conflicts = wantStats.Conflicts; !reflect.DeepEqual(gotStats, wantStats) {
				t.Fatalf("round %d, GOMAXPROCS %d: stats %+v, reference %+v", round, procs, gotStats, wantStats)
			}
		}
	}
	if conflicts == 0 || torn == 0 || superseded == 0 {
		t.Fatalf("the inputs never exercised something: %d conflict(s), %d torn source(s), %d superseded", conflicts, torn, superseded)
	}
}
