// Package storetest is the cross-backend conformance suite for the
// runstore.Store contract. Every backend — the JSONL journal (also as a
// shard file), the block-indexed archive — runs the same
// assertions through Run, so the scheduler's assumptions (last-wins
// views, contiguous replicate counting, durable appends, batch appends
// that equal sequential ones, crash-recovery equivalence, concurrency
// safety) are enforced uniformly instead of
// drifting per backend. A new backend earns its place behind
// sched.Options.Store by passing this suite, nothing less.
//
// Concurrency: the suite itself spawns concurrent appenders and readers;
// run it under -race (the repository's `make check` does).
//
// Durability: crash recovery is simulated through the Backend.Tear hook,
// which damages the backend's files the way a kill mid-append would;
// the suite then asserts a reopen serves exactly the records appended
// before the crash.
package storetest

import (
	"bytes"
	"fmt"
	"math"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/runstore"
)

// Backend adapts one Store implementation to the conformance suite.
type Backend struct {
	// Name labels the subtests ("journal", "shard journal", "archivestore").
	Name string
	// Open opens (creating on first call) the backend's store rooted at
	// dir. Successive calls against the same dir must reopen the same
	// persistent state — that is what the durability assertions exercise.
	Open func(t *testing.T, dir string) runstore.Store
	// Tear simulates a crash mid-append: with every store closed, damage
	// the backend's file(s) under dir the way an interrupted append would
	// (a torn half-written suffix). The suite then reopens and asserts
	// nothing durable was lost.
	Tear func(t *testing.T, dir string)
}

// mkRecord builds a deterministic test record. Distinct rows get
// distinct assignments (and so hashes); the hash itself is left for the
// store to derive, which is part of the contract.
func mkRecord(exp string, row, rep int, val float64) runstore.Record {
	return runstore.Record{
		Experiment: exp,
		Row:        row,
		Replicate:  rep,
		Assignment: map[string]string{"cell": fmt.Sprintf("c%03d", row)},
		Responses:  map[string]float64{"t": val},
	}
}

func hashOf(r runstore.Record) string { return runstore.AssignmentHash(r.Assignment) }

// records drains a store's Scan into a slice, failing the test on a
// yielded error — the materializing convenience the assertions below
// use where they genuinely need the whole view.
func records(t *testing.T, s runstore.Store) []runstore.Record {
	t.Helper()
	recs, err := runstore.Collect(s.Scan())
	if err != nil {
		t.Fatalf("Scan yielded an error: %v", err)
	}
	return recs
}

// Run drives the full Store conformance suite against one backend.
func Run(t *testing.T, b Backend) {
	t.Run("EmptyStore", func(t *testing.T) {
		s := b.Open(t, t.TempDir())
		defer s.Close()
		if _, ok := s.Lookup("e", "deadbeef", 0); ok {
			t.Fatal("empty store Lookup hit")
		}
		if n := s.ReplicateCount("e", "deadbeef"); n != 0 {
			t.Fatalf("empty store ReplicateCount = %d", n)
		}
		if recs := records(t, s); len(recs) != 0 {
			t.Fatalf("empty store Scan yields %d entries", len(recs))
		}
	})

	t.Run("AppendLookupCount", func(t *testing.T) {
		s := b.Open(t, t.TempDir())
		defer s.Close()
		var want []runstore.Record
		for row := 0; row < 3; row++ {
			for rep := 0; rep < 2; rep++ {
				r := mkRecord("e", row, rep, float64(row*10+rep))
				if err := s.Append(r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
		}
		for _, w := range want {
			got, ok := s.Lookup("e", hashOf(w), w.Replicate)
			if !ok {
				t.Fatalf("Lookup(%s/%d) missed", hashOf(w), w.Replicate)
			}
			if got.Responses["t"] != w.Responses["t"] {
				t.Fatalf("Lookup = %v, want %v", got.Responses, w.Responses)
			}
			if got.Hash != hashOf(w) {
				t.Fatalf("store did not derive Hash: %q", got.Hash)
			}
			if got.Assignment["cell"] != w.Assignment["cell"] {
				t.Fatalf("assignment lost: %v", got.Assignment)
			}
		}
		if n := s.ReplicateCount("e", hashOf(want[0])); n != 2 {
			t.Fatalf("ReplicateCount = %d, want 2", n)
		}
	})

	t.Run("LastWins", func(t *testing.T) {
		s := b.Open(t, t.TempDir())
		defer s.Close()
		if err := s.Append(mkRecord("e", 0, 0, 1)); err != nil {
			t.Fatal(err)
		}
		redo := mkRecord("e", 0, 0, 2)
		if err := s.Append(redo); err != nil {
			t.Fatal(err)
		}
		got, ok := s.Lookup("e", hashOf(redo), 0)
		if !ok || got.Responses["t"] != 2 {
			t.Fatalf("Lookup = %v ok=%v, want the superseding record", got.Responses, ok)
		}
		distinct := 0
		for _, r := range records(t, s) {
			if r.Experiment == "e" {
				distinct++
			}
		}
		if distinct != 1 {
			t.Fatalf("Records holds %d copies, want 1 (last-wins)", distinct)
		}
	})

	t.Run("ReplicateContiguity", func(t *testing.T) {
		// A gap must stop the count: warm start extends a contiguous
		// prefix, never fills holes.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		for _, rep := range []int{0, 1, 3} {
			if err := s.Append(mkRecord("e", 0, rep, 1)); err != nil {
				t.Fatal(err)
			}
		}
		if n := s.ReplicateCount("e", hashOf(mkRecord("e", 0, 0, 1))); n != 2 {
			t.Fatalf("ReplicateCount with a gap at 2 = %d, want 2", n)
		}
	})

	t.Run("RecordsDeterministic", func(t *testing.T) {
		dir := t.TempDir()
		s := b.Open(t, dir)
		for row := 0; row < 5; row++ {
			if err := s.Append(mkRecord("e", row, 0, float64(row))); err != nil {
				t.Fatal(err)
			}
		}
		first := keysOf(records(t, s))
		second := keysOf(records(t, s))
		if !equalKeys(first, second) {
			t.Fatalf("Records not deterministic: %v vs %v", first, second)
		}
		s.Close()
		r := b.Open(t, dir)
		defer r.Close()
		if got := keysOf(records(t, r)); !equalKeys(first, got) {
			t.Fatalf("Scan order changed across reopen: %v vs %v", first, got)
		}
	})

	t.Run("RejectsInvalid", func(t *testing.T) {
		s := b.Open(t, t.TempDir())
		defer s.Close()
		if err := s.Append(runstore.Record{Replicate: 0}); err == nil {
			t.Fatal("append without an experiment name succeeded")
		}
		neg := mkRecord("e", 0, 0, 1)
		neg.Replicate = -1
		if err := s.Append(neg); err == nil {
			t.Fatal("append with a negative replicate succeeded")
		}
		nan := mkRecord("e", 0, 0, 1)
		nan.Responses = map[string]float64{"t": math.NaN()}
		if err := s.Append(nan); err == nil {
			t.Fatal("append with a NaN response succeeded")
		}
		if len(records(t, s)) != 0 {
			t.Fatal("rejected appends left records behind")
		}
	})

	t.Run("AppendAfterCloseFails", func(t *testing.T) {
		s := b.Open(t, t.TempDir())
		if err := s.Append(mkRecord("e", 0, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		if err := s.Append(mkRecord("e", 0, 1, 1)); err == nil {
			t.Fatal("append after Close succeeded")
		}
	})

	t.Run("ReopenDurability", func(t *testing.T) {
		dir := t.TempDir()
		s := b.Open(t, dir)
		var want []runstore.Record
		for row := 0; row < 4; row++ {
			for rep := 0; rep < 2; rep++ {
				r := mkRecord("e", row, rep, float64(row)+float64(rep)/10)
				if err := s.Append(r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		r := b.Open(t, dir)
		defer r.Close()
		assertHolds(t, r, want, "reopen")
	})

	t.Run("ConcurrentAppendLookup", func(t *testing.T) {
		// All methods must be safe for concurrent use; -race is the real
		// assertion here.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		const workers, reps = 4, 8
		var wg sync.WaitGroup
		for w := 0; w < workers; w++ {
			wg.Add(1)
			go func(w int) {
				defer wg.Done()
				for rep := 0; rep < reps; rep++ {
					if err := s.Append(mkRecord("e", w, rep, float64(rep))); err != nil {
						t.Error(err)
						return
					}
					s.Lookup("e", hashOf(mkRecord("e", w, 0, 0)), rep)
					s.ReplicateCount("e", hashOf(mkRecord("e", w, 0, 0)))
				}
			}(w)
		}
		wg.Wait()
		if got := len(records(t, s)); got != workers*reps {
			t.Fatalf("Scan holds %d, want %d", got, workers*reps)
		}
	})

	t.Run("CrashRecoveryEquivalence", func(t *testing.T) {
		if b.Tear == nil {
			t.Skip("backend has no Tear hook")
		}
		dir := t.TempDir()
		s := b.Open(t, dir)
		var want []runstore.Record
		for row := 0; row < 3; row++ {
			for rep := 0; rep < 3; rep++ {
				r := mkRecord("e", row, rep, float64(row*row)+float64(rep))
				if err := s.Append(r); err != nil {
					t.Fatal(err)
				}
				want = append(want, r)
			}
		}
		if err := s.Close(); err != nil {
			t.Fatal(err)
		}
		b.Tear(t, dir)
		r := b.Open(t, dir)
		defer r.Close()
		// Equivalence: the recovered view is exactly the pre-crash view —
		// every durable append present, the torn suffix gone, and the
		// store writable again.
		assertHolds(t, r, want, "post-crash reopen")
		if got := len(records(t, r)); got != len(want) {
			t.Fatalf("post-crash Scan holds %d, want exactly %d", got, len(want))
		}
		if err := r.Append(mkRecord("e", 9, 0, 1)); err != nil {
			t.Fatalf("append after crash recovery: %v", err)
		}
	})

	t.Run("ScanDeterministicOrder", func(t *testing.T) {
		// Two consecutive scans of a quiescent store must yield the same
		// keys in the same order, record by record, with no errors.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		for row := 0; row < 6; row++ {
			for rep := 0; rep < 2; rep++ {
				if err := s.Append(mkRecord("e", row, rep, float64(row*10+rep))); err != nil {
					t.Fatal(err)
				}
			}
		}
		first := keysOf(records(t, s))
		if len(first) != 12 {
			t.Fatalf("Scan yields %d records, want 12", len(first))
		}
		if !equalKeys(first, keysOf(records(t, s))) {
			t.Fatal("two scans of a quiescent store disagree")
		}
	})

	t.Run("ScanEarlyBreak", func(t *testing.T) {
		// A consumer that stops early must not deadlock the store or leak
		// its iteration: the store stays fully usable afterwards.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		for row := 0; row < 5; row++ {
			if err := s.Append(mkRecord("e", row, 0, float64(row))); err != nil {
				t.Fatal(err)
			}
		}
		n := 0
		for _, err := range s.Scan() {
			if err != nil {
				t.Fatal(err)
			}
			n++
			if n == 2 {
				break
			}
		}
		if err := s.Append(mkRecord("e", 9, 0, 1)); err != nil {
			t.Fatalf("append after an abandoned scan: %v", err)
		}
		if got := len(records(t, s)); got != 6 {
			t.Fatalf("store holds %d records after early break + append, want 6", got)
		}
	})

	t.Run("ScanDuringAppend", func(t *testing.T) {
		// Appending mid-iteration must neither block nor corrupt the scan:
		// every record present when the scan started is yielded intact,
		// and the append lands durably.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		const preload = 8
		for row := 0; row < preload; row++ {
			if err := s.Append(mkRecord("e", row, 0, float64(row))); err != nil {
				t.Fatal(err)
			}
		}
		seen := 0
		for rec, err := range s.Scan() {
			if err != nil {
				t.Fatal(err)
			}
			if rec.Experiment != "e" {
				t.Fatalf("scan yielded foreign record %+v", rec)
			}
			if seen == 2 {
				if err := s.Append(mkRecord("e", preload, 0, 99)); err != nil {
					t.Fatalf("append during scan: %v", err)
				}
			}
			seen++
		}
		if seen < preload {
			t.Fatalf("scan yielded %d records, want at least the %d present at start", seen, preload)
		}
		if _, ok := s.Lookup("e", hashOf(mkRecord("e", preload, 0, 99)), 0); !ok {
			t.Fatal("record appended during scan not indexed")
		}
	})

	t.Run("ConcurrentAppendDuringScan", func(t *testing.T) {
		// Scan's snapshot-at-start contract under real concurrency: while
		// one goroutine iterates, others keep appending from separate
		// goroutines (not merely from inside the scan loop, which
		// ScanDuringAppend covers single-threaded). -race is the sharpest
		// assertion; beyond it, every record present when the scan began
		// must be yielded intact and every concurrent append must land.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		const preload, appenders, extra = 10, 3, 6
		for row := 0; row < preload; row++ {
			if err := s.Append(mkRecord("e", row, 0, float64(row))); err != nil {
				t.Fatal(err)
			}
		}
		start := make(chan struct{})
		var wg sync.WaitGroup
		for a := 0; a < appenders; a++ {
			wg.Add(1)
			go func(a int) {
				defer wg.Done()
				<-start
				for i := 0; i < extra; i++ {
					if err := s.Append(mkRecord("e", preload+a*extra+i, 0, float64(i))); err != nil {
						t.Error(err)
						return
					}
				}
			}(a)
		}
		seen := 0
		for rec, err := range s.Scan() {
			if err != nil {
				t.Fatal(err)
			}
			if rec.Experiment != "e" {
				t.Fatalf("scan yielded foreign record %+v", rec)
			}
			if seen == 0 {
				close(start) // appenders race the rest of the iteration
			}
			seen++
		}
		wg.Wait()
		if seen < preload {
			t.Fatalf("scan yielded %d records, want at least the %d present at start", seen, preload)
		}
		if got := len(records(t, s)); got != preload+appenders*extra {
			t.Fatalf("store holds %d records after concurrent appends, want %d", got, preload+appenders*extra)
		}
	})

	t.Run("BatchAppender", func(t *testing.T) {
		// The optional batch side of the contract (runstore.BatchAppender).
		// The scheduler commits through it whenever a store offers it, so
		// it is held to Append's rules, batch-wide.
		open := func(t *testing.T, dir string) (runstore.Store, runstore.BatchAppender) {
			s := b.Open(t, dir)
			ba, ok := s.(runstore.BatchAppender)
			if !ok {
				s.Close()
				t.Skip("backend has no batch path")
			}
			return s, ba
		}
		var batch []runstore.Record
		for row := 0; row < 6; row++ {
			for rep := 0; rep < 2; rep++ {
				batch = append(batch, mkRecord("e", row, rep, float64(row*10+rep)))
			}
		}

		t.Run("BytesEqualSequentialAppends", func(t *testing.T) {
			batched, single := t.TempDir(), t.TempDir()
			s, ba := open(t, batched)
			if err := ba.AppendBatch(batch[:5]); err != nil {
				t.Fatal(err)
			}
			if err := ba.AppendBatch(nil); err != nil {
				t.Fatalf("empty batch: %v", err)
			}
			if err := ba.AppendBatch(batch[5:]); err != nil {
				t.Fatal(err)
			}
			s.Close()
			one := b.Open(t, single)
			for _, r := range batch {
				if err := one.Append(r); err != nil {
					t.Fatal(err)
				}
			}
			one.Close()
			got, want := dirBytes(t, batched), dirBytes(t, single)
			if len(got) != len(want) {
				t.Fatalf("batched store has %d file(s), sequential %d", len(got), len(want))
			}
			for name, data := range want {
				if !bytes.Equal(got[name], data) {
					t.Fatalf("%s: batched bytes differ from the same records appended one by one:\n%q\nvs\n%q", name, got[name], data)
				}
			}
		})

		t.Run("InvalidRecordWritesNothing", func(t *testing.T) {
			dir := t.TempDir()
			s, ba := open(t, dir)
			defer s.Close()
			bad := append([]runstore.Record{}, batch...)
			bad[len(bad)-1].Responses = map[string]float64{"t": math.Inf(1)}
			before := dirBytes(t, dir)
			if err := ba.AppendBatch(bad); err == nil {
				t.Fatal("batch holding a non-finite response succeeded")
			}
			if len(records(t, s)) != 0 {
				t.Fatal("rejected batch left records in the view")
			}
			after := dirBytes(t, dir)
			for name, data := range after {
				if !bytes.Equal(before[name], data) {
					t.Fatalf("rejected batch wrote to %s", name)
				}
			}
			if err := ba.AppendBatch(batch); err != nil {
				t.Fatalf("valid batch after a rejected one: %v", err)
			}
		})

		t.Run("VisibleAndDurableOnReturn", func(t *testing.T) {
			dir := t.TempDir()
			s, ba := open(t, dir)
			defer s.Close()
			if err := ba.AppendBatch(batch); err != nil {
				t.Fatal(err)
			}
			assertHolds(t, s, batch, "after AppendBatch")
			if got := len(records(t, s)); got != len(batch) {
				t.Fatalf("Scan holds %d, want %d", got, len(batch))
			}
			// No Close in between: what a second process opening the files
			// would find the moment AppendBatch returned.
			fresh := b.Open(t, dir)
			defer fresh.Close()
			assertHolds(t, fresh, batch, "fresh open")
		})

		t.Run("ConcurrentAppendBatchAppendScan", func(t *testing.T) {
			s, ba := open(t, t.TempDir())
			defer s.Close()
			const writers, rounds, size = 3, 4, 5
			var wg sync.WaitGroup
			for w := 0; w < writers; w++ {
				wg.Add(2)
				go func(w int) {
					defer wg.Done()
					for round := 0; round < rounds; round++ {
						group := make([]runstore.Record, size)
						for i := range group {
							group[i] = mkRecord("e", w, round*size+i, float64(i))
						}
						if err := ba.AppendBatch(group); err != nil {
							t.Error(err)
							return
						}
					}
				}(w)
				go func(w int) {
					defer wg.Done()
					for rep := 0; rep < rounds*size; rep++ {
						if err := s.Append(mkRecord("e", writers+w, rep, float64(rep))); err != nil {
							t.Error(err)
							return
						}
						for _, err := range s.Scan() {
							if err != nil {
								t.Error(err)
								return
							}
						}
					}
				}(w)
			}
			wg.Wait()
			if got := len(records(t, s)); got != 2*writers*rounds*size {
				t.Fatalf("Scan holds %d, want %d", got, 2*writers*rounds*size)
			}
			for w := 0; w < 2*writers; w++ {
				if n := s.ReplicateCount("e", hashOf(mkRecord("e", w, 0, 0))); n != rounds*size {
					t.Fatalf("cell %d: ReplicateCount = %d, want %d", w, n, rounds*size)
				}
			}
		})
	})

	t.Run("ScanErrorPropagation", func(t *testing.T) {
		// The error slot of the sequence is part of the contract: a
		// healthy store yields none, and Collect surfaces the first one.
		// Backends whose Scan reads from disk mid-iteration additionally
		// cover real read failures in their own tests.
		s := b.Open(t, t.TempDir())
		defer s.Close()
		if err := s.Append(mkRecord("e", 0, 0, 1)); err != nil {
			t.Fatal(err)
		}
		if _, err := runstore.Collect(s.Scan()); err != nil {
			t.Fatalf("healthy store Scan yielded error: %v", err)
		}
	})
}

// assertHolds checks that every record in want is served by Lookup and
// counted by ReplicateCount.
func assertHolds(t *testing.T, s runstore.Store, want []runstore.Record, stage string) {
	t.Helper()
	perCell := map[string]int{}
	for _, w := range want {
		got, ok := s.Lookup(w.Experiment, hashOf(w), w.Replicate)
		if !ok {
			t.Fatalf("%s: Lookup(%s/%d) missed", stage, hashOf(w), w.Replicate)
		}
		if got.Responses["t"] != w.Responses["t"] {
			t.Fatalf("%s: Lookup = %v, want %v", stage, got.Responses, w.Responses)
		}
		cell := runstore.CellKey(w.Experiment, hashOf(w))
		if w.Replicate+1 > perCell[cell] {
			perCell[cell] = w.Replicate + 1
		}
	}
	for _, w := range want {
		cell := runstore.CellKey(w.Experiment, hashOf(w))
		if n := s.ReplicateCount(w.Experiment, hashOf(w)); n != perCell[cell] {
			t.Fatalf("%s: ReplicateCount = %d, want %d", stage, n, perCell[cell])
		}
	}
}

// dirBytes reads every file under dir: name → contents.
func dirBytes(t *testing.T, dir string) map[string][]byte {
	t.Helper()
	out := map[string][]byte{}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		data, err := os.ReadFile(filepath.Join(dir, e.Name()))
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = data
	}
	return out
}

func keysOf(recs []runstore.Record) []string {
	out := make([]string, len(recs))
	for i, r := range recs {
		out[i] = r.Key()
	}
	return out
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
