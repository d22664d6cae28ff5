package archivestore_test

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"testing"

	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
)

// benchRecords is the 10^5-record corpus the ROADMAP's million-run north
// star is scaled down to for CI: 10^4 cells x 10 replicates.
const benchRecords = 100_000

var benchOnce struct {
	sync.Once
	dir  string
	err  error
	jlen int64
	alen int64
}

// benchFiles builds (once) a journal and its archive conversion holding
// the same benchRecords records, in a shared temp dir.
func benchFiles(b *testing.B) (journal, archive string) {
	benchOnce.Do(func() {
		dir, err := os.MkdirTemp("", "archbench")
		if err != nil {
			benchOnce.err = err
			return
		}
		benchOnce.dir = dir
		recs := make([]runstore.Record, 0, benchRecords)
		for i := 0; i < benchRecords; i++ {
			recs = append(recs, runstore.Record{
				Experiment: "bench",
				Row:        i / 10,
				Replicate:  i % 10,
				Hash:       fmt.Sprintf("%016x", uint64(i/10)),
				Assignment: map[string]string{"cell": fmt.Sprintf("c%05d", i/10)},
				Responses:  map[string]float64{"t": float64(i % 97)},
			})
		}
		// The journal is written directly (its format is one JSON line
		// per record); Append's per-record fsync is irrelevant to an open
		// benchmark and would take minutes here.
		jf, err := os.Create(filepath.Join(dir, "bench.jsonl"))
		if err != nil {
			benchOnce.err = err
			return
		}
		bw := bufio.NewWriter(jf)
		for _, r := range recs {
			line, err := json.Marshal(r)
			if err != nil {
				benchOnce.err = err
				return
			}
			bw.Write(line)
			bw.WriteByte('\n')
		}
		if err := bw.Flush(); err != nil {
			benchOnce.err = err
			return
		}
		jf.Close()
		if err := archivestore.Write(filepath.Join(dir, "bench.arch"), runstore.Seq(recs), ""); err != nil {
			benchOnce.err = err
			return
		}
		if st, err := os.Stat(filepath.Join(dir, "bench.jsonl")); err == nil {
			benchOnce.jlen = st.Size()
		}
		if st, err := os.Stat(filepath.Join(dir, "bench.arch")); err == nil {
			benchOnce.alen = st.Size()
		}
	})
	if benchOnce.err != nil {
		b.Fatal(benchOnce.err)
	}
	return filepath.Join(benchOnce.dir, "bench.jsonl"), filepath.Join(benchOnce.dir, "bench.arch")
}

// BenchmarkArchiveOpen measures the warm-start entry cost on the archive
// backend: open 10^5 records via footer + index pages (no JSON parse),
// answer one warm-start probe, close. The acceptance bar for the backend
// is >= 10x faster than BenchmarkJournalOpen on the same records.
func BenchmarkArchiveOpen(b *testing.B) {
	_, arch := benchFiles(b)
	b.ReportMetric(float64(benchOnce.alen), "file-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		a, err := archivestore.Open(arch)
		if err != nil {
			b.Fatal(err)
		}
		if n := a.ReplicateCount("bench", fmt.Sprintf("%016x", uint64(7))); n != 10 {
			b.Fatalf("ReplicateCount = %d, want 10", n)
		}
		a.Close()
	}
}

// BenchmarkJournalOpen is the baseline BenchmarkArchiveOpen is judged
// against: the JSONL journal re-parses every record into memory on open.
func BenchmarkJournalOpen(b *testing.B) {
	journal, _ := benchFiles(b)
	b.ReportMetric(float64(benchOnce.jlen), "file-bytes")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		j, err := runstore.Open(journal)
		if err != nil {
			b.Fatal(err)
		}
		if n := j.ReplicateCount("bench", fmt.Sprintf("%016x", uint64(7))); n != 10 {
			b.Fatalf("ReplicateCount = %d, want 10", n)
		}
		j.Close()
	}
}

// BenchmarkConvert rewrites the 10^5-record corpus between the journal
// and the archive: every record is decoded on the way, from the
// journal's read-ahead window or by the archive reader's Read, and
// encoded into the other format.
func BenchmarkConvert(b *testing.B) {
	journal, arch := benchFiles(b)
	for _, c := range []struct{ name, src, dst string }{
		{"jsonl-arch", journal, "out.arch"},
		{"arch-jsonl", arch, "out.jsonl"},
	} {
		b.Run(c.name, func(b *testing.B) {
			dst := filepath.Join(b.TempDir(), c.dst)
			b.ReportAllocs()
			for i := 0; i < b.N; i++ {
				ms, err := runstore.Merge([]string{c.src}, dst)
				if err != nil {
					b.Fatal(err)
				}
				if ms.Kept != benchRecords {
					b.Fatalf("kept %d, want %d", ms.Kept, benchRecords)
				}
			}
			b.ReportMetric(benchRecords, "records/op")
		})
	}
}
