package warehouse

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/framelog"
	"repro/internal/obs"
)

// indexCommits reads warehouse_index_commits_total from reg.
func indexCommits(reg *obs.Registry) int64 {
	return reg.Counter("warehouse_index_commits_total", "").Value()
}

// landEveryRunAtOnce makes each changed source's ingest done before
// Refresh looks, until the test ends, so a Refresh lands all its runs in
// one commit. The hook is package state: a test that sets it must not run
// in parallel.
func landEveryRunAtOnce(t *testing.T) {
	refreshTurn = func(done <-chan struct{}) { <-done }
	t.Cleanup(func() { refreshTurn = nil })
}

// linkedSources links the sources of src into a fresh root.
func linkedSources(t *testing.T, src string, rels []string) string {
	t.Helper()
	root := t.TempDir()
	for _, rel := range rels {
		if err := os.Link(filepath.Join(src, rel), filepath.Join(root, rel)); err != nil {
			t.Fatal(err)
		}
	}
	return root
}

// TestRefreshAndPruneCommitOnce counts index commits: a cold Refresh of k
// changed sources lands them in fewer than k — in one when every ingest is
// done by its turn — and its index file is the bytes one Put per run
// writes; a Refresh that finds nothing changed commits nothing; a Prune of
// k runs commits once, and one that prunes nothing not at all. Not
// parallel: it sets refreshTurn.
func TestRefreshAndPruneCommitOnce(t *testing.T) {
	src := t.TempDir()
	rels := eightSources(t, src)
	k := int64(len(rels))

	// As the ingests happen to finish: at most one commit per source.
	reg := obs.NewRegistry()
	w, err := Open(linkedSources(t, src, rels), Options{Metrics: reg, Clock: steppingClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rs, err := w.Refresh(); err != nil || rs.Ingested != len(rels) {
		t.Fatalf("Refresh = %+v, %v", rs, err)
	}
	if n := indexCommits(reg); n < 1 || n > k {
		t.Errorf("a cold Refresh of %d sources made %d index commit(s), want 1 to %d", k, n, k)
	}

	landEveryRunAtOnce(t)
	reg = obs.NewRegistry()
	root := linkedSources(t, src, rels)
	w, err = Open(root, Options{Metrics: reg, Clock: steppingClock()})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if rs, err := w.Refresh(); err != nil || rs.Ingested != len(rels) {
		t.Fatalf("Refresh = %+v, %v", rs, err)
	}
	if n := indexCommits(reg); n != 1 {
		t.Errorf("a cold Refresh of %d sources, each done by its turn, made %d index commit(s), want 1", k, n)
	}
	// The same frames in the same order as one Put per run, in catalog order.
	one, err := openIndex(filepath.Join(t.TempDir(), IndexFile), new(obs.Counter))
	if err != nil {
		t.Fatal(err)
	}
	for _, rel := range rels {
		if err := one.Put(w.idx.runs[rel]); err != nil {
			t.Fatal(err)
		}
	}
	one.Close()
	batched, err1 := os.ReadFile(filepath.Join(root, IndexFile))
	serial, err2 := os.ReadFile(one.log.Path())
	if err1 != nil || err2 != nil {
		t.Fatal(err1, err2)
	}
	if !bytes.Equal(batched, serial) {
		t.Errorf("the index of one commit (%d bytes) is not the index of one Put per run (%d bytes)", len(batched), len(serial))
	}

	if rs, err := w.Refresh(); err != nil || rs.Unchanged != len(rels) {
		t.Fatalf("second Refresh = %+v, %v", rs, err)
	}
	if n := indexCommits(reg); n != 1 {
		t.Errorf("a Refresh that found nothing changed committed: %d commit(s) in all, want still 1", n)
	}
	if ps, err := w.Prune(Retention{KeepRuns: 3}); err != nil || ps.Pruned != 5 {
		t.Fatalf("Prune = %+v, %v; want 5 pruned", ps, err)
	}
	if n := indexCommits(reg); n != 2 {
		t.Errorf("a Prune of 5 runs made %d index commit(s), want 1", n-1)
	}
	if ps, err := w.Prune(Retention{KeepRuns: 3}); err != nil || ps.Pruned != 0 {
		t.Fatalf("second Prune = %+v, %v; want nothing pruned", ps, err)
	}
	if n := indexCommits(reg); n != 2 {
		t.Errorf("a Prune that pruned nothing committed: %d commit(s) in all, want still 2", n)
	}
}

// TestCrashInsideAMultiRunCommit cuts the index in the middle of the
// second frame of a Refresh's one commit — a crash during its write. The
// reopened index holds exactly the run of the whole frame before the cut,
// the next Refresh ingests the rest, and from then on the warehouse
// answers every query as one that never crashed does. Not parallel: it
// sets refreshTurn.
func TestCrashInsideAMultiRunCommit(t *testing.T) {
	src := t.TempDir()
	rels := eightSources(t, src)
	whole := openTest(t, linkedSources(t, src, rels))
	if rs, err := whole.Refresh(); err != nil || rs.Ingested != len(rels) {
		t.Fatalf("Refresh = %+v, %v", rs, err)
	}

	landEveryRunAtOnce(t)
	root := linkedSources(t, src, rels)
	reg := obs.NewRegistry()
	w, err := Open(root, Options{Metrics: reg, Clock: whole.clock})
	if err != nil {
		t.Fatal(err)
	}
	if rs, err := w.Refresh(); err != nil || rs.Ingested != len(rels) || indexCommits(reg) != 1 {
		t.Fatalf("Refresh = %+v, %v with %d commit(s); want every source in one", rs, err, indexCommits(reg))
	}
	w.Close()
	path := filepath.Join(root, IndexFile)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	frameEnd := func(off int) int {
		return off + framelog.FrameHeaderSize + int(binary.LittleEndian.Uint32(data[off:]))
	}
	second := frameEnd(len(IndexMagic))
	if err := os.Truncate(path, int64(second+(frameEnd(second)-second)/2)); err != nil {
		t.Fatal(err)
	}

	w, err = Open(root, Options{Metrics: obs.NewRegistry(), Clock: whole.clock})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	if !w.idx.Torn() {
		t.Error("the cut frame was not reported torn")
	}
	if got := w.idx.Runs(); len(got) != 1 || !reflect.DeepEqual(got[0], whole.idx.runs[rels[0]]) {
		t.Fatalf("after the cut the index holds %d run(s), want exactly %s as first indexed", len(got), rels[0])
	}
	if rs, err := w.Refresh(); err != nil || rs.Ingested != len(rels)-1 || rs.Unchanged != 1 {
		t.Fatalf("Refresh after the cut = %+v, %v; want %d ingested, 1 unchanged", rs, err, len(rels)-1)
	}

	var reqs []Request
	for _, kind := range []string{KindRuns, KindTrends, KindRegressions} {
		reqs = append(reqs, Request{Kind: kind})
	}
	for _, r := range whole.Runs() {
		for _, c := range r.Cells {
			reqs = append(reqs, Request{Kind: KindHistory, Cell: c.selector}, Request{Kind: KindHistory, Cell: c.Hash, Response: c.Response})
		}
	}
	for _, req := range reqs {
		want, err1 := whole.Query(req)
		got, err2 := w.Query(req)
		if err1 != nil || err2 != nil || !reflect.DeepEqual(got, want) {
			t.Fatalf("Query(%+v) after the crash = %+v, %v; uninterrupted %+v, %v", req, got, err2, want, err1)
		}
	}
}
