package sched

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/adaptive"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
)

// shardDir opens this process's shard file of each experiment under dir,
// the way the repro package's RunConfig does for a sharded run.
func shardDir(dir string, shard, shards int) func(string) (runstore.Store, error) {
	return func(experiment string) (runstore.Store, error) {
		return runstore.Open(shardstore.Path(dir, experiment, shard, shards))
	}
}

// newWideExperiment builds a deterministic one-factor design with enough
// cells that every shard of a small partition owns some rows.
func newWideExperiment(t testing.TB, cells, reps int, run harness.RunFunc) *harness.Experiment {
	t.Helper()
	levels := make([]string, cells)
	for i := range levels {
		levels[i] = fmt.Sprintf("L%02d", i)
	}
	d, err := design.FullFactorial([]design.Factor{design.MustFactor("f", levels...)})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = reps
	if run == nil {
		run = wideRunner
	}
	return &harness.Experiment{Name: "sched wide", Design: d, Responses: []string{"ms"}, Run: run}
}

func wideRunner(a design.Assignment, rep int) (map[string]float64, error) {
	var i int
	if _, err := fmt.Sscanf(a["f"], "L%d", &i); err != nil {
		return nil, fmt.Errorf("bad level %q: %w", a["f"], err)
	}
	return map[string]float64{"ms": float64(100*i + rep)}, nil
}

// TestShardedRunPartitionsDisjointly runs every shard of a partitioned
// experiment as its own scheduler over one journal dir and checks the
// scale-out contract: executed unit sets are disjoint, their union is the
// full design, each worker journals only its own shard file, and the
// merged journal is byte-identical to a single-process run's journal.
func TestShardedRunPartitionsDisjointly(t *testing.T) {
	const shards, cells, reps = 3, 8, 2
	dir := t.TempDir()
	var mu sync.Mutex
	executedBy := make([]map[string]bool, shards)

	for k := 0; k < shards; k++ {
		k := k
		executedBy[k] = map[string]bool{}
		run := func(a design.Assignment, rep int) (map[string]float64, error) {
			mu.Lock()
			executedBy[k][fmt.Sprintf("%s/%d", runstore.AssignmentHash(a), rep)] = true
			mu.Unlock()
			return wideRunner(a, rep)
		}
		s := New(Options{Workers: 2, Shards: shards, Shard: k, Open: shardDir(dir, k, shards)})
		rs, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, run))
		if err != nil {
			t.Fatalf("shard %d: %v", k, err)
		}
		st := s.LastStats()
		if st.Executed != len(executedBy[k]) || st.Replayed != 0 {
			t.Errorf("shard %d stats = %+v, executed map has %d", k, st, len(executedBy[k]))
		}
		if st.Executed+st.Skipped != cells*reps {
			t.Errorf("shard %d: executed %d + skipped %d != %d units", k, st.Executed, st.Skipped, cells*reps)
		}
		if st.Units != st.Executed {
			t.Errorf("shard %d: Units = %d, want %d (owned units only)", k, st.Units, st.Executed)
		}
		// The worker's ResultSet carries its own rows in full and the
		// unowned rows as empty placeholders.
		full, empty := 0, 0
		for _, row := range rs.Rows {
			switch len(row.Reps) {
			case reps:
				full++
			case 0:
				empty++
			default:
				t.Errorf("shard %d: row %s has %d reps", k, row.Assignment, len(row.Reps))
			}
		}
		if full*reps != st.Executed || full+empty != cells {
			t.Errorf("shard %d: %d full + %d empty rows, executed %d", k, full, empty, st.Executed)
		}
	}

	// Disjoint and exhaustive.
	seen := map[string]int{}
	for k := 0; k < shards; k++ {
		if len(executedBy[k]) == 0 {
			t.Errorf("shard %d executed nothing; pick more cells for the test design", k)
		}
		for key := range executedBy[k] {
			seen[key]++
		}
	}
	if len(seen) != cells*reps {
		t.Errorf("union covers %d units, want %d", len(seen), cells*reps)
	}
	for key, n := range seen {
		if n != 1 {
			t.Errorf("unit %s executed by %d shards", key, n)
		}
	}

	// The row partition is the only routing: every record in shard file
	// K routes to K, and shard K's run alone creates no other shard's
	// file.
	for k, path := range shardstore.Paths(dir, "sched wide", shards) {
		recs, err := runstore.LoadRecords(path)
		if err != nil {
			t.Fatal(err)
		}
		if len(recs) != len(executedBy[k]) {
			t.Errorf("shard file %d holds %d records, shard %d executed %d", k, len(recs), k, len(executedBy[k]))
		}
		for _, rec := range recs {
			if got := runstore.ShardIndex(rec.Hash, shards); got != k {
				t.Errorf("record %s in shard file %d routes to shard %d", rec.Key(), k, got)
			}
		}
		alone := t.TempDir()
		s := New(Options{Workers: 2, Shards: shards, Shard: k, Open: shardDir(alone, k, shards)})
		if _, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, nil)); err != nil {
			t.Fatal(err)
		}
		entries, err := os.ReadDir(alone)
		if err != nil {
			t.Fatal(err)
		}
		if want := filepath.Base(shardstore.Path(alone, "sched wide", k, shards)); len(entries) != 1 || entries[0].Name() != want {
			var names []string
			for _, e := range entries {
				names = append(names, e.Name())
			}
			t.Errorf("shard %d alone wrote %q, want only %q", k, names, want)
		}
	}

	// Merge the shard files and compare byte-for-byte with a
	// single-process single-worker run (appends in design order, i.e.
	// already canonical).
	singleDir := t.TempDir()
	s := New(Options{Workers: 1, Open: journalDir(singleDir)})
	if _, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, nil)); err != nil {
		t.Fatal(err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	ms, err := runstore.Merge(shardstore.Paths(dir, "sched wide", shards), merged)
	if err != nil {
		t.Fatal(err)
	}
	if ms.Kept != cells*reps || len(ms.Conflicts) != 0 || ms.Superseded != 0 {
		t.Errorf("merge stats = %+v", ms)
	}
	singlePath := filepath.Join(singleDir, runstore.SanitizeName("sched wide")+".jsonl")
	want, err := os.ReadFile(singlePath)
	if err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(got, want) {
		t.Errorf("merged shard journal != single-process journal:\n%s\nvs\n%s", got, want)
	}

	// Compacting the merged journal is a byte-identical no-op.
	if _, err := runstore.Compact(merged, ""); err != nil {
		t.Fatal(err)
	}
	if again, err := os.ReadFile(merged); err != nil || !bytes.Equal(again, got) {
		t.Errorf("compact changed the merged journal (err %v)", err)
	}

	// Replaying the merged journal through an unsharded scheduler (via
	// the Store option) yields the full ResultSet without executing
	// anything — the final-artifact step of the workflow.
	j, err := runstore.Open(merged)
	if err != nil {
		t.Fatal(err)
	}
	defer j.Close()
	sr := New(Options{Workers: 2, Store: j})
	rs, err := sr.Execute(context.Background(), newWideExperiment(t, cells, reps, func(design.Assignment, int) (map[string]float64, error) {
		return nil, fmt.Errorf("nothing should execute on a full replay")
	}))
	if err != nil {
		t.Fatal(err)
	}
	if st := sr.LastStats(); st.Executed != 0 || st.Replayed != cells*reps {
		t.Errorf("replay stats = %+v", st)
	}
	cold, err := harness.Sequential{}.Execute(context.Background(), newWideExperiment(t, cells, reps, nil))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CSV() != rs.CSV() || cold.Report() != rs.Report() {
		t.Error("replayed merged run differs from cold sequential run")
	}
}

// TestShardedWarmStart re-runs one shard over its existing shard file:
// everything it owns replays, nothing executes, the rest stays skipped.
func TestShardedWarmStart(t *testing.T) {
	const shards, cells, reps = 2, 6, 2
	dir := t.TempDir()
	for k := 0; k < shards; k++ {
		s := New(Options{Workers: 2, Shards: shards, Shard: k, Open: shardDir(dir, k, shards)})
		if _, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, nil)); err != nil {
			t.Fatal(err)
		}
	}
	s := New(Options{Workers: 2, Shards: shards, Shard: 0, Open: shardDir(dir, 0, shards)})
	if _, err := s.Execute(context.Background(), newWideExperiment(t, cells, reps, func(design.Assignment, int) (map[string]float64, error) {
		return nil, fmt.Errorf("warm shard re-run should replay, not execute")
	})); err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.Executed != 0 || st.Replayed == 0 || st.Replayed+st.Skipped != cells*reps {
		t.Errorf("warm shard stats = %+v", st)
	}
}

// TestShardOptionValidation covers the sharding misconfigurations the
// scheduler must reject up front.
func TestShardOptionValidation(t *testing.T) {
	dir := t.TempDir()
	e := func() *harness.Experiment { return newWideExperiment(t, 4, 1, nil) }
	if _, err := New(Options{Shards: 2, Shard: 2, Open: shardDir(dir, 2, 2)}).Execute(context.Background(), e()); err == nil {
		t.Error("shard index == shards should error")
	}
	if _, err := New(Options{Shards: 2, Shard: -1, Open: shardDir(dir, -1, 2)}).Execute(context.Background(), e()); err == nil {
		t.Error("negative shard index should error")
	}
	if _, err := New(Options{Shards: 2}).Execute(context.Background(), e()); err == nil {
		t.Error("sharding without a store should error")
	}
	ctrl, err := adaptive.New(adaptive.Options{})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := New(Options{Shards: 2, Open: shardDir(dir, 0, 2), Controller: ctrl}).Execute(context.Background(), e()); err == nil {
		t.Error("sharding with an adaptive controller should error")
	}
}
