package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/stats"
)

// TestSummarizeGroupsAndSorts reads a journal whose experiments, cells
// and responses are appended out of order: one Summary per experiment,
// sorted by name, rows by (assignment, response), each row the count,
// mean and unbiased variance of its cell's distinct last-wins values.
func TestSummarizeGroupsAndSorts(t *testing.T) {
	lo, hi := map[string]string{"f": "lo"}, map[string]string{"f": "hi"}
	path := filepath.Join(t.TempDir(), "run.jsonl")
	writeJournal(t, path, []runstore.Record{
		mkRec("b-exp", lo, 1, map[string]float64{"t": 11, "bytes": 7}),
		mkRec("b-exp", lo, 0, map[string]float64{"t": 10}),
		mkRec("b-exp", hi, 0, map[string]float64{"t": 99}), // superseded below
		mkRec("a-exp", hi, 0, map[string]float64{"t": 5}),
		mkRec("b-exp", hi, 0, map[string]float64{"t": 20}),
	}, baseTime)
	sums, err := Summarize(path)
	if err != nil {
		t.Fatal(err)
	}
	row := func(a map[string]string, resp string, values ...float64) runstore.SummaryRow {
		r := runstore.SummaryRow{Hash: runstore.AssignmentHash(a), Assignment: a, Response: resp, N: len(values), Mean: stats.Mean(values)}
		if len(values) >= 2 {
			r.Variance = stats.Variance(values)
		}
		return r
	}
	want := []*runstore.Summary{
		{Experiment: "a-exp", Rows: []runstore.SummaryRow{row(hi, "t", 5)}},
		{Experiment: "b-exp", Rows: []runstore.SummaryRow{
			row(hi, "t", 20),
			row(lo, "bytes", 7),
			row(lo, "t", 11, 10),
		}},
	}
	if !reflect.DeepEqual(sums, want) {
		t.Fatalf("Summarize =\n%s\nwant\n%s", dumpSummaries(sums), dumpSummaries(want))
	}
	if _, err := Summarize(filepath.Join(t.TempDir(), "absent.jsonl")); err == nil {
		t.Error("Summarize of a missing file should error")
	}
}

// TestSummarizeShardsEqualMerged summarizes one experiment's shard
// journals together and the journal Merge folds them into: the same
// Summaries, bit for bit, since the shards hold disjoint cells and each
// cell's values sit in the same order in both.
func TestSummarizeShardsEqualMerged(t *testing.T) {
	dir := t.TempDir()
	shards := shardstore.Paths(dir, "e", 2)
	journals := make([]*runstore.Journal, len(shards))
	for k, path := range shards {
		j, err := runstore.Open(path)
		if err != nil {
			t.Fatal(err)
		}
		journals[k] = j
	}
	for cell := 0; cell < 12; cell++ {
		a := map[string]string{"n": fmt.Sprint(cell)}
		j := journals[runstore.ShardIndex(runstore.AssignmentHash(a), len(shards))]
		for rep := 0; rep < 3; rep++ {
			// Values no binary fraction spells, so a different summation
			// order would show in the last bits.
			v := 10.1 + 0.37*float64(cell) + 0.013*float64(rep*rep%7)
			if err := j.Append(mkRec("e", a, rep, map[string]float64{"ms": v, "kb": v / 3})); err != nil {
				t.Fatal(err)
			}
		}
	}
	for _, j := range journals {
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
	}
	merged := filepath.Join(dir, "merged.jsonl")
	if _, err := runstore.Merge(shards, merged); err != nil {
		t.Fatal(err)
	}
	fromShards, err := Summarize(shards...)
	if err != nil {
		t.Fatal(err)
	}
	fromMerged, err := Summarize(merged)
	if err != nil {
		t.Fatal(err)
	}
	if len(fromMerged) != 1 || len(fromMerged[0].Rows) != 24 {
		t.Fatalf("merged journal summarized to %s", dumpSummaries(fromMerged))
	}
	if !reflect.DeepEqual(fromShards, fromMerged) {
		t.Fatalf("shards summarize to\n%s\nthe merged journal to\n%s", dumpSummaries(fromShards), dumpSummaries(fromMerged))
	}
}

func dumpSummaries(sums []*runstore.Summary) string {
	var out string
	for _, s := range sums {
		out += fmt.Sprintf("%s: %+v\n", s.Experiment, s.Rows)
	}
	return out
}

// TestSummarizeRefusesASourceWithoutARecord: a file with bytes in it but
// no complete record — garbage, which reads as a journal whose only line
// is a torn tail — is not a baseline, and the error names it, while an
// empty file summarizes to nothing, as before.
func TestSummarizeRefusesASourceWithoutARecord(t *testing.T) {
	dir := t.TempDir()
	garbage := filepath.Join(dir, "bad.arch")
	if err := os.WriteFile(garbage, []byte("garbage"), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := Summarize(garbage); err == nil || !strings.Contains(err.Error(), garbage) {
		t.Errorf("Summarize(garbage) = %v, want an error naming %s", err, garbage)
	}
	empty := filepath.Join(dir, "empty.jsonl")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if sums, err := Summarize(empty); err != nil || len(sums) != 0 {
		t.Errorf("Summarize(empty) = %v, %v; want no summary and no error", sums, err)
	}
}

// TestRefreshCataloguesATornOnlyJournal: a crashed run whose journal
// holds a torn tail and nothing else is still a run to the catalog — of
// no record — and does not fail the refresh of the runs beside it.
func TestRefreshCataloguesATornOnlyJournal(t *testing.T) {
	root := t.TempDir()
	writeJournal(t, filepath.Join(root, "a.jsonl"), []runstore.Record{
		mkRec("e", map[string]string{"f": "x"}, 0, map[string]float64{"ms": 1}),
	}, baseTime)
	if err := os.WriteFile(filepath.Join(root, "crashed.jsonl"), []byte(`{"experiment":"e","ro`), 0o644); err != nil {
		t.Fatal(err)
	}
	w := openTest(t, root)
	rs, err := w.Refresh()
	if err != nil {
		t.Fatal(err)
	}
	if rs.Candidates != 2 || rs.Ingested != 2 || rs.Records != 1 {
		t.Fatalf("refresh = %+v, want both sources ingested, 1 record", rs)
	}
	for _, r := range w.Runs() {
		if r.Path == "crashed.jsonl" && r.Records != 0 {
			t.Errorf("crashed.jsonl catalogued with %d record(s), want 0", r.Records)
		}
	}
}
