package archivestore

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"testing"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/warehouse"
)

// randomRecords draws records over what a format conversion can get wrong:
// null and empty maps, names that need escapes or are not ASCII, −0, and
// the shortest-float edges 1e−7 and 1e21; keys collide, so some records
// supersede others, and a quarter carry a stored hash that is not their
// assignment's.
func randomRecords(rng *rand.Rand) []runstore.Record {
	names := []string{"plain", "ü-umlaut", "日本語", `quote"d`, `back\slash`, "tab\tnew\nline", "<b>&amp;", "sep ", "ctl\x01"}
	values := []float64{0, math.Copysign(0, -1), 1e-7, 1e21, -1e21, 1.5, 5e-324, math.MaxFloat64}
	pick := func() string { return names[rng.Intn(len(names))] }
	var recs []runstore.Record
	for n := 1 + rng.Intn(30); n > 0; n-- {
		r := runstore.Record{Experiment: pick(), Row: rng.Intn(5), Replicate: rng.Intn(3)}
		switch rng.Intn(3) {
		case 0: // null
		case 1:
			r.Assignment = map[string]string{}
		default:
			r.Assignment = map[string]string{}
			for m := 1 + rng.Intn(3); m > 0; m-- {
				r.Assignment[pick()] = pick()
			}
		}
		switch rng.Intn(3) {
		case 0: // null
		case 1:
			r.Responses = map[string]float64{}
		default:
			r.Responses = map[string]float64{}
			for m := 1 + rng.Intn(3); m > 0; m-- {
				v := values[rng.Intn(len(values))]
				if rng.Intn(3) == 0 {
					v = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(40)-20))
				}
				r.Responses[pick()] = v
			}
		}
		if rng.Intn(4) == 0 {
			r.Hash = fmt.Sprintf("%016x", rng.Uint64())
		}
		recs = append(recs, r)
	}
	return recs
}

// TestArchzByteIdentity: the archive is a lossless stop between formats,
// under either of its extensions. For random records, from a JSON journal
// and from the binary record file Merge writes of it, Merge(src → x.arch) and Merge(src → x.archz)
// write the same bytes, and Merge(x → y.jsonl) writes exactly the bytes
// of Merge(src → y.jsonl); and a warehouse refresh ingests either to
// src's records and fingerprint, and to the cells — bit for bit — of the
// journal the same merge writes. (Not src's own: Merge writes records in
// canonical order, and the order records arrive in decides which of two
// cells tied on everything the cell sort compares comes first.)
func TestArchzByteIdentity(t *testing.T) {
	t.Parallel()
	rng := rand.New(rand.NewSource(25))
	for round := 0; round < 20; round++ {
		recs := randomRecords(rng)
		for _, ext := range []string{".jsonl", runstore.BinaryExt} {
			root := t.TempDir()
			src := filepath.Join(root, "src"+ext)
			journal := src
			if ext != ".jsonl" {
				journal = filepath.Join(t.TempDir(), "src.jsonl") // outside root: the refresh below ingests what root holds
			}
			j, err := runstore.Open(journal)
			if err != nil {
				t.Fatal(err)
			}
			if err := j.AppendBatch(recs); err != nil {
				t.Fatal(err)
			}
			j.Close()
			if journal != src {
				if _, err := runstore.Merge([]string{journal}, src); err != nil {
					t.Fatal(err)
				}
			}
			direct := filepath.Join(root, "direct.jsonl")
			if _, err := runstore.Merge([]string{src}, direct); err != nil {
				t.Fatal(err)
			}
			want, _ := os.ReadFile(direct)
			var archives [][]byte
			for _, x := range []string{filepath.Join(root, "x"+Ext), filepath.Join(root, "x"+ExtZ)} {
				via := filepath.Join(t.TempDir(), "via.jsonl")
				for _, m := range [][2]string{{src, x}, {x, via}} {
					if _, err := runstore.Merge([]string{m[0]}, m[1]); err != nil {
						t.Fatal(err)
					}
				}
				if got, _ := os.ReadFile(via); !bytes.Equal(got, want) {
					t.Fatalf("round %d: %s → %s → .jsonl is not %s → .jsonl:\n got %q\nwant %q", round, ext, filepath.Ext(x), ext, got, want)
				}
				data, _ := os.ReadFile(x)
				archives = append(archives, data)
			}
			if !bytes.Equal(archives[0], archives[1]) {
				t.Fatalf("round %d, %s: the %s and %s merges wrote different bytes", round, ext, Ext, ExtZ)
			}

			w, err := warehouse.Open(root, warehouse.Options{Metrics: obs.NewRegistry()})
			if err != nil {
				t.Fatal(err)
			}
			if rs, err := w.Refresh(); err != nil || rs.Ingested != 4 {
				t.Fatalf("round %d, %s: refresh = %+v, %v", round, ext, rs, err)
			}
			runs := map[string]warehouse.Run{}
			for _, r := range w.Runs() {
				runs[r.Path] = r
			}
			w.Close()
			merged, source := runs["direct.jsonl"], runs["src"+ext]
			for _, x := range []string{"x" + Ext, "x" + ExtZ} {
				if got := runs[x]; got.Format != "archive" || got.Records != source.Records || got.Fingerprint != source.Fingerprint || !reflect.DeepEqual(got.Cells, merged.Cells) {
					t.Fatalf("round %d, %s: the warehouse ingests %s as\n %+v\nsrc as\n %+v\nand the merged journal as\n %+v", round, ext, x, got, source, merged)
				}
			}
		}
	}
}
