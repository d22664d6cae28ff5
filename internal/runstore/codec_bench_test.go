package runstore

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"iter"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
)

// benchCodecRecords builds n in-memory records shaped like the bulk
// journal benchmarks' rows: a two-field assignment with a 64-byte pad,
// one response.
func benchCodecRecords(tb testing.TB, n int) []Record {
	tb.Helper()
	pad := strings.Repeat("x", 64)
	recs := make([]Record, 0, n)
	for i := 0; i < n; i++ {
		a := map[string]string{"cell": fmt.Sprintf("c%06d", i), "pad": pad}
		recs = append(recs, Record{
			Experiment: "bench-codec", Row: i, Replicate: 0,
			Hash:       AssignmentHash(a),
			Assignment: a,
			Responses:  map[string]float64{"ms": float64(i) + 0.5},
		})
	}
	return recs
}

// appendRecordFrame appends rec's binary frame to dst (the binary
// payload encoder cannot fail).
func appendRecordFrame(dst []byte, rec Record) []byte {
	dst, _ = binaryCodec.appendFrame(dst, rec)
	return dst
}

// writeBulkBinary is writeBulkJournal's binary twin: n records framed
// straight to a .binj file without per-record fsyncs.
func writeBulkBinary(tb testing.TB, path, experiment string, rows, reps int, pad string) {
	tb.Helper()
	buf := []byte(BinaryMagic)
	for row := 0; row < rows; row++ {
		a := map[string]string{"cell": fmt.Sprintf("c%06d", row), "pad": pad}
		hash := AssignmentHash(a)
		for rep := 0; rep < reps; rep++ {
			buf = appendRecordFrame(buf, Record{
				Experiment: experiment, Row: row, Replicate: rep, Hash: hash,
				Assignment: a,
				Responses:  map[string]float64{"ms": float64(row) + float64(rep)/10},
			})
		}
	}
	if err := os.WriteFile(path, buf, 0o644); err != nil {
		tb.Fatal(err)
	}
}

// The Encode pair is the pure codec half of the append path: one
// iteration encodes 10^5 records to a wire stream. The binary frames
// must beat json.Marshal; BENCHMARK.json's
// runstore.{en,de}code_*_ns_per_record layers (bench/README.md) record
// the margin.

func BenchmarkEncodeJSON(b *testing.B) {
	recs := benchCodecRecords(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			if err := EncodeWire(io.Discard, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

func BenchmarkEncodeBinary(b *testing.B) {
	recs := benchCodecRecords(b, 100_000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, rec := range recs {
			if err := EncodeWireBinary(io.Discard, rec); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(recs)), "records/op")
}

// The Scan benchmarks measure the read half: open a 10^5-record journal
// and decode every record through the public Scan sequence.

type scanCloser interface {
	Scan() iter.Seq2[Record, error]
	Close() error
}

func benchScan(b *testing.B, path string, open func(string) (scanCloser, error)) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := open(path)
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		for _, err := range j.Scan() {
			if err != nil {
				b.Fatal(err)
			}
			n++
		}
		if err := j.Close(); err != nil {
			b.Fatal(err)
		}
		if n != 100_000 {
			b.Fatalf("scanned %d record(s), want 100000", n)
		}
	}
	b.ReportMetric(100_000, "records/op")
}

func BenchmarkScanJSON(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.jsonl")
	writeBulkJournal(b, path, "bench-scan", 50_000, 2, strings.Repeat("x", 64))
	benchScan(b, path, func(p string) (scanCloser, error) { return Open(p) })
}

// BenchmarkScanJSONEscaped is BenchmarkScanJSON over a journal whose
// every line needs the fallback decoder — a non-ASCII experiment name
// and an escaped pad value — so it shows what leaving the canonical
// form costs: encoding/json's price, as before the hand-written codec.
func BenchmarkScanJSONEscaped(b *testing.B) {
	path := filepath.Join(b.TempDir(), "scan.jsonl")
	writeBulkJournal(b, path, "bench-scan-µs", 50_000, 2, strings.Repeat("<>", 32))
	benchScan(b, path, func(p string) (scanCloser, error) { return Open(p) })
}

// BenchmarkAppendJSON measures the live per-record append, fsync
// included; the encode work of both formats shows up in the Merge pair
// below.

func BenchmarkAppendJSON(b *testing.B) {
	j, err := Open(filepath.Join(b.TempDir(), "append.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := benchCodecRecords(b, 1000)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := j.Append(recs[i%len(recs)]); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkJournalAppendConcurrent is the per-record append from
// several goroutines at once — a scheduler's workers over a Store that
// does not batch. Run it at -cpu 1,2,4: RunParallel starts GOMAXPROCS
// appenders, whose fsyncs overlap instead of queuing one behind another.
func BenchmarkJournalAppendConcurrent(b *testing.B) {
	j, err := Open(filepath.Join(b.TempDir(), "append.jsonl"))
	if err != nil {
		b.Fatal(err)
	}
	defer j.Close()
	recs := benchCodecRecords(b, 1000)
	var next atomic.Int64
	b.ReportAllocs()
	b.ResetTimer()
	b.RunParallel(func(pb *testing.PB) {
		for pb.Next() {
			if err := j.Append(recs[next.Add(1)%int64(len(recs))]); err != nil {
				b.Error(err)
				return
			}
		}
	})
}

// The Merge pair is the acceptance workload: two 5x10^4-record sources
// folded into a destination of the same format. JSON pays a parse and a
// marshal per record; binary pays neither. The Convert pair folds the
// same sources into the other journal encoding, so the write pass copies
// no frame: every winner is decoded from its source's read-ahead window
// and encoded again.

func benchMerge(b *testing.B, ext, dstExt string, write func(tb testing.TB, path, experiment string, rows, reps int, pad string)) {
	b.Helper()
	dir := b.TempDir()
	const rows, reps = 25_000, 2
	pad := strings.Repeat("x", 64)
	s0 := filepath.Join(dir, "s0"+ext)
	s1 := filepath.Join(dir, "s1"+ext)
	write(b, s0, "bench-a", rows, reps, pad)
	write(b, s1, "bench-b", rows, reps, pad)
	dst := filepath.Join(dir, "merged"+dstExt)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		ms, err := Merge([]string{s0, s1}, dst)
		if err != nil {
			b.Fatal(err)
		}
		if ms.Kept != 2*rows*reps {
			b.Fatalf("kept %d, want %d", ms.Kept, 2*rows*reps)
		}
	}
	b.ReportMetric(float64(2*rows*reps), "records/op")
}

func BenchmarkMergeJSON(b *testing.B)   { benchMerge(b, ".jsonl", ".jsonl", writeBulkJournal) }
func BenchmarkMergeBinary(b *testing.B) { benchMerge(b, BinaryExt, BinaryExt, writeBulkBinary) }

func BenchmarkConvert(b *testing.B) {
	b.Run("jsonl-binj", func(b *testing.B) { benchMerge(b, ".jsonl", BinaryExt, writeBulkJournal) })
	b.Run("binj-jsonl", func(b *testing.B) { benchMerge(b, BinaryExt, ".jsonl", writeBulkBinary) })
}

// TestBulkBinaryMatchesAppend pins the writeBulkBinary helper to the
// writer of binary record files: the bytes it fabricates must be exactly
// what Merge writes into a .binj for the same records read from
// writeBulkJournal's journal — both helpers list them in Merge's
// canonical order — or every binary benchmark above would measure a
// fiction.
func TestBulkBinaryMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	bulk := filepath.Join(dir, "bulk.binj")
	writeBulkBinary(t, bulk, "pin", 3, 2, "x")
	journal := filepath.Join(dir, "bulk.jsonl")
	writeBulkJournal(t, journal, "pin", 3, 2, "x")
	merged := filepath.Join(dir, "merged.binj")
	if _, err := Merge([]string{journal}, merged); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(bulk)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, bb) {
		t.Fatal("writeBulkBinary bytes differ from the .binj Merge writes")
	}
}

// TestBulkJournalMatchesAppend is the same pin for the JSONL helper.
func TestBulkJournalMatchesAppend(t *testing.T) {
	dir := t.TempDir()
	bulk := filepath.Join(dir, "bulk.jsonl")
	writeBulkJournal(t, bulk, "pin", 3, 2, "x")
	appended := filepath.Join(dir, "appended.jsonl")
	j, err := Open(appended)
	if err != nil {
		t.Fatal(err)
	}
	for row := 0; row < 3; row++ {
		a := map[string]string{"cell": fmt.Sprintf("c%06d", row), "pad": "x"}
		hash := AssignmentHash(a)
		for rep := 0; rep < 2; rep++ {
			rec := Record{
				Experiment: "pin", Row: row, Replicate: rep, Hash: hash,
				Assignment: a,
				Responses:  map[string]float64{"ms": float64(row) + float64(rep)/10},
			}
			if _, err := json.Marshal(rec); err != nil {
				t.Fatal(err)
			}
			if err := j.Append(rec); err != nil {
				t.Fatal(err)
			}
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	a, err := os.ReadFile(bulk)
	if err != nil {
		t.Fatal(err)
	}
	bb, err := os.ReadFile(appended)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(a, bb) {
		t.Fatal("writeBulkJournal bytes differ from Journal.Append bytes")
	}
}
