package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strings"
	"sync/atomic"
	"testing"
	"time"
)

// writeBulkJournal writes n records straight to a JSONL file — the
// bytes Append would produce, without paying n fsyncs — so benchmarks
// can build 10^5-record inputs in setup.
func writeBulkJournal(tb testing.TB, path, experiment string, rows, reps int, pad string) {
	tb.Helper()
	var buf bytes.Buffer
	for row := 0; row < rows; row++ {
		a := map[string]string{"cell": fmt.Sprintf("c%06d", row), "pad": pad}
		hash := AssignmentHash(a)
		for rep := 0; rep < reps; rep++ {
			line, err := json.Marshal(Record{
				Experiment: experiment, Row: row, Replicate: rep, Hash: hash,
				Assignment: a,
				Responses:  map[string]float64{"ms": float64(row) + float64(rep)/10},
			})
			if err != nil {
				tb.Fatal(err)
			}
			buf.Write(line)
			buf.WriteByte('\n')
		}
	}
	if err := os.WriteFile(path, buf.Bytes(), 0o644); err != nil {
		tb.Fatal(err)
	}
}

// peakHeap samples HeapAlloc until stop is closed and records the
// maximum observed — the streaming claim is about peak residency, which
// cumulative B/op cannot see.
func peakHeap(stop chan struct{}) *atomic.Uint64 {
	peak := new(atomic.Uint64)
	go func() {
		var ms runtime.MemStats
		for {
			runtime.ReadMemStats(&ms)
			if ms.HeapAlloc > peak.Load() {
				peak.Store(ms.HeapAlloc)
			}
			select {
			case <-stop:
				return
			case <-time.After(200 * time.Microsecond):
			}
		}
	}()
	return peak
}

// BenchmarkMergeStreaming merges two 5x10^4-record journals (10^5
// records total, the acceptance workload) and asserts the merge is
// streaming-bounded: peak heap stays far below what materializing the
// record set would cost. Run with -benchmem; B/op covers transient
// decode garbage, the peak-B metric is the retained high-water mark.
func BenchmarkMergeStreaming(b *testing.B) {
	dir := b.TempDir()
	const rows, reps = 25_000, 2 // 50k records per source, 100k total
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	pad := strings.Repeat("x", 64)
	writeBulkJournal(b, s0, "bench-a", rows, reps, pad)
	writeBulkJournal(b, s1, "bench-b", rows, reps, pad)
	dst := filepath.Join(dir, "merged.jsonl")

	b.ReportAllocs()
	b.ResetTimer()
	var peak uint64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		stop := make(chan struct{})
		p := peakHeap(stop)
		ms, err := Merge([]string{s0, s1}, dst)
		close(stop)
		if err != nil {
			b.Fatal(err)
		}
		if ms.Kept != 2*rows*reps {
			b.Fatalf("kept %d, want %d", ms.Kept, 2*rows*reps)
		}
		if grown := p.Load() - base.HeapAlloc; grown > peak {
			peak = grown
		}
	}
	b.ReportMetric(float64(peak), "peak-B")
	// Materializing 10^5 records (two maps, strings, a slice) keeps
	// ~150MB simultaneously live and peaks well past 250MB once GC lag
	// is added; the entry index keeps a few tens of bytes per record
	// live, peaking ~65MB here including transient decode garbage
	// between GCs. 128MB is the regression tripwire between the two
	// regimes, not a tight bound.
	if limit := uint64(128 << 20); peak > limit {
		b.Fatalf("merge peak heap %d bytes exceeds streaming bound %d — is the record set being materialized again?", peak, limit)
	}
}

// BenchmarkCompactStreaming compacts a 10^5-record journal in which
// half the records are superseded — the retention workload — under the
// same streaming-bounded peak-heap assertion as BenchmarkMergeStreaming.
func BenchmarkCompactStreaming(b *testing.B) {
	dir := b.TempDir()
	const rows, reps = 25_000, 2
	src := filepath.Join(dir, "src.jsonl")
	pad := strings.Repeat("x", 64)
	writeBulkJournal(b, src, "bench", rows, reps, pad)
	// Append the same journal again: every key superseded once.
	data, err := os.ReadFile(src)
	if err != nil {
		b.Fatal(err)
	}
	if err := os.WriteFile(src, append(data, data...), 0o644); err != nil {
		b.Fatal(err)
	}
	dst := filepath.Join(dir, "compacted.jsonl")

	b.ReportAllocs()
	b.ResetTimer()
	var peak uint64
	for i := 0; i < b.N; i++ {
		runtime.GC()
		var base runtime.MemStats
		runtime.ReadMemStats(&base)
		stop := make(chan struct{})
		p := peakHeap(stop)
		cs, err := Compact(src, dst)
		close(stop)
		if err != nil {
			b.Fatal(err)
		}
		if cs.Kept != rows*reps || cs.Dropped != rows*reps {
			b.Fatalf("stats = %+v, want kept %d dropped %d", cs, rows*reps, rows*reps)
		}
		if grown := p.Load() - base.HeapAlloc; grown > peak {
			peak = grown
		}
	}
	b.ReportMetric(float64(peak), "peak-B")
	if limit := uint64(128 << 20); peak > limit {
		b.Fatalf("compact peak heap %d bytes exceeds streaming bound %d", peak, limit)
	}
}

// BenchmarkCollect is the end-to-end benchmark's fleet-collect operation
// at that workload's size and record shape (bench/: one factor, two
// responses): Merge two 1 500-record shard journals into the canonical
// journal, then Compact it in place. Every line is canonical, so the
// index passes run on the entry scan, Merge copies every winner's frame,
// and Compact finds nothing to rewrite.
func BenchmarkCollect(b *testing.B) { benchCollect(b, 0) }

// BenchmarkCollectHandEdited is BenchmarkCollect with every tenth source
// line hand-edited (a space no encoder writes): those lines take the
// fallback — decoded and re-encoded in both passes of Merge — while
// their neighbours are still copied. It prices the fallback beside the
// fast path; the merged journal is canonical either way, so Compact
// still finds nothing to rewrite.
func BenchmarkCollectHandEdited(b *testing.B) { benchCollect(b, 10) }

// writeShardJournals writes one run of cells x 2 records in the
// end-to-end benchmark's record shape (bench/: one factor, two responses)
// as n canonical shard journals, cell c in shard c%n — what n workers'
// spools hold — and returns their paths. editEvery > 0 makes every
// editEvery-th line non-canonical.
func writeShardJournals(b *testing.B, dir string, cells, n, editEvery int) []string {
	b.Helper()
	shards := make([]bytes.Buffer, n)
	lines := 0
	for cell := 0; cell < cells; cell++ {
		a := map[string]string{"cell": fmt.Sprintf("c%05d", cell)}
		hash := AssignmentHash(a)
		for rep := 0; rep < 2; rep++ {
			line, err := json.Marshal(Record{
				Experiment: "journey", Row: cell, Replicate: rep, Hash: hash,
				Assignment: a,
				Responses:  map[string]float64{"ms": 5 + float64(cell*2+rep)/1000, "io": float64(100 + cell%900)},
			})
			if err != nil {
				b.Fatal(err)
			}
			if lines++; editEvery > 0 && lines%editEvery == 0 {
				line = bytes.Replace(line, []byte(`,"responses":`), []byte(`, "responses":`), 1)
			}
			shards[cell%n].Write(line)
			shards[cell%n].WriteByte('\n')
		}
	}
	srcs := make([]string, n)
	for i := range srcs {
		srcs[i] = filepath.Join(dir, fmt.Sprintf("s%02d.jsonl", i))
		if err := os.WriteFile(srcs[i], shards[i].Bytes(), 0o644); err != nil {
			b.Fatal(err)
		}
	}
	return srcs
}

// benchCollect runs the collect operation; editEvery > 0 makes every
// editEvery-th source line non-canonical.
func benchCollect(b *testing.B, editEvery int) {
	dir := b.TempDir()
	srcs := writeShardJournals(b, dir, 1500, 2, editEvery)
	dst := filepath.Join(dir, "canonical.jsonl")
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := Merge(srcs, dst)
		if err != nil {
			b.Fatal(err)
		}
		cs, err := Compact(dst, "")
		if err != nil {
			b.Fatal(err)
		}
		if ms.Kept != 3000 || cs.Kept != 3000 || cs.Dropped != 0 || !cs.Unchanged {
			b.Fatalf("merge kept %d, compact = %+v; want 3000 kept, none dropped, unchanged", ms.Kept, cs)
		}
	}
	b.ReportMetric(3000, "records/op")
}

// BenchmarkMergeShards merges one 24 000-record run collected as 2, 8 and
// 32 canonical shard journals: the same records and the same output, so
// what moves with the shard count is the index pass — sources read side
// by side, no list re-sorted — and the k-way write.
func BenchmarkMergeShards(b *testing.B) {
	for _, n := range []int{2, 8, 32} {
		b.Run(fmt.Sprintf("shards=%d", n), func(b *testing.B) {
			dir := b.TempDir()
			srcs := writeShardJournals(b, dir, 12_000, n, 0)
			dst := filepath.Join(dir, "canonical.jsonl")
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				ms, err := Merge(srcs, dst)
				if err != nil {
					b.Fatal(err)
				}
				if ms.Kept != 24_000 || ms.Superseded != 0 {
					b.Fatalf("stats = %+v, want 24000 kept, none superseded", ms)
				}
			}
			b.ReportMetric(24_000, "records/op")
		})
	}
}

// BenchmarkScanFileSuperseded is the in-order baseline of
// BenchmarkScanFileReverseSuperseded.
func BenchmarkScanFileSuperseded(b *testing.B) { benchScanFileSuperseded(b, false) }

// BenchmarkScanFileReverseSuperseded prices the read-ahead window's worst
// case: a 20 000-key journal written twice over, so ScanFile serves every
// key from the second copy, in first-appended order. With the second copy
// in the first's order the winners lie in file order and one 64 KiB read
// serves a few hundred of them; with it reversed, as here, every winner
// lies before the last one and the window is refilled per record.
func BenchmarkScanFileReverseSuperseded(b *testing.B) { benchScanFileSuperseded(b, true) }

func benchScanFileSuperseded(b *testing.B, reverse bool) {
	dir := b.TempDir()
	src := filepath.Join(dir, "src.jsonl")
	const keys = 20_000
	writeBulkJournal(b, src, "scan", keys, 1, "x")
	data, err := os.ReadFile(src)
	if err != nil {
		b.Fatal(err)
	}
	second := bytes.SplitAfter(data, []byte("\n"))
	second = second[:len(second)-1] // the empty piece after the last newline
	if reverse {
		slices.Reverse(second)
	}
	if err := os.WriteFile(src, slices.Concat(data, bytes.Join(second, nil)), 0o644); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		n := 0
		for _, err := range ScanFile(src) {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if n != keys {
			b.Fatalf("scanned %d records, want %d", n, keys)
		}
	}
	b.ReportMetric(keys, "records/op")
}

// TestMergeStreamingPeakMemory is the deterministic form of the
// benchmark assertion, sized so it runs in the ordinary test suite:
// merging records whose payloads sum to ~24MB must peak far below the
// materialized size. A regression back to slice materialization keeps
// the whole record set live and cannot pass.
func TestMergeStreamingPeakMemory(t *testing.T) {
	if testing.Short() {
		t.Skip("memory-profile test")
	}
	dir := t.TempDir()
	const rows, reps = 1500, 2 // 6000 records x ~4KB payload ≈ 24MB
	pad := strings.Repeat("p", 4096)
	s0 := filepath.Join(dir, "s0.jsonl")
	s1 := filepath.Join(dir, "s1.jsonl")
	writeBulkJournal(t, s0, "peak-a", rows, reps, pad)
	writeBulkJournal(t, s1, "peak-b", rows, reps, pad)
	payload := uint64(2 * rows * reps * len(pad))

	runtime.GC()
	var base runtime.MemStats
	runtime.ReadMemStats(&base)
	stop := make(chan struct{})
	p := peakHeap(stop)
	if _, err := Merge([]string{s0, s1}, filepath.Join(dir, "merged.jsonl")); err != nil {
		close(stop)
		t.Fatal(err)
	}
	close(stop)
	grown := p.Load() - base.HeapAlloc
	if grown > payload {
		t.Errorf("merge peak heap grew %d bytes, more than the %d bytes of record payloads — records are being materialized", grown, payload)
	}
}
