package warehouse

import (
	"fmt"
	"path/filepath"
	"reflect"
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
	st, err := shardstore.Open(dir, "e", 2)
	if err != nil {
		t.Fatal(err)
	}
	for cell := 0; cell < 12; cell++ {
		a := map[string]string{"n": fmt.Sprint(cell)}
		for rep := 0; rep < 3; rep++ {
			// Values no binary fraction spells, so a different summation
			// order would show in the last bits.
			v := 10.1 + 0.37*float64(cell) + 0.013*float64(rep*rep%7)
			if err := st.Append(mkRec("e", a, rep, map[string]float64{"ms": v, "kb": v / 3})); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := st.Close(); err != nil {
		t.Fatal(err)
	}
	shards := shardstore.Paths(dir, "e", 2)
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
