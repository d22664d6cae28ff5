package warehouse

import (
	"cmp"
	"fmt"
	"os"
	"path/filepath"
	"slices"
	"strconv"
	"strings"

	"repro/internal/design"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// The reference implementation of ingest: the pass it ran when every
// frame was decoded into a runstore.Record — two maps and six strings —
// kept word for word (the records now come from Entries and Read, frame
// by frame, since no reader hands out records any more) as the oracle the
// field-pass ingest is held to, beside the ScanFile route. Nothing in the
// product calls it.

func referenceIngest(root, rel string, st os.FileInfo) (Run, error) {
	r, err := runstore.OpenSource(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
	}
	defer r.Close()

	type value struct {
		response string
		v        float64
	}
	type slot struct { // one distinct record, in first-appended order
		cell   int    // index into cells
		fp     uint64 // recordFingerprint of the frame that holds the slot
		values []value
	}
	type cell struct { // one design cell, in first-appearance order
		experiment, hash string
		assignment       map[string]string
		first            int // the slot whose record names the assignment
	}
	var (
		slots  []slot
		cells  []cell
		slotAt = make(map[string]int) // record key -> slot
		cellAt = make(map[string]int) // cell key (the record key's prefix) -> cell
		key    []byte
	)
	for e, err := range r.Entries() {
		if err != nil {
			return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
		}
		rec, err := r.Read(e.Ext)
		if err != nil {
			return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
		}
		// runstore.Key, and in its first bytes runstore.CellKey, built in
		// a reused buffer: a map lookup by string(key) does not allocate.
		key = append(append(append(key[:0], rec.Experiment...), '/'), rec.Hash...)
		cellKey := len(key)
		key = strconv.AppendInt(append(key, '/'), int64(rec.Replicate), 10)
		i, seen := slotAt[string(key)]
		if !seen {
			ci, ok := cellAt[string(key[:cellKey])]
			if !ok {
				ci = len(cells)
				cells = append(cells, cell{first: len(slots)})
				cellAt[string(key[:cellKey])] = ci
			}
			i = len(slots)
			slots = append(slots, slot{cell: ci})
			slotAt[string(key)] = i
		}
		s := &slots[i]
		s.fp = recordFingerprint(rec)
		if c := &cells[s.cell]; c.first == i {
			c.experiment, c.hash, c.assignment = rec.Experiment, rec.Hash, rec.Assignment
		}
		if need := len(rec.Responses); need > cap(s.values) {
			s.values = make([]value, 0, need)
		}
		s.values = s.values[:0]
		for resp, v := range rec.Responses {
			s.values = append(s.values, value{resp, v})
		}
	}

	run := Run{
		Path:      rel,
		Size:      st.Size(),
		ModTimeNS: st.ModTime().UnixNano(),
		Format:    formatName(rel),
		Records:   len(slots),
	}
	// Per cell, each response's values in slot order: the order ScanFile
	// yields the cell's records in, so the sums below add in its order.
	perCell := make([]map[string][]float64, len(cells))
	for _, s := range slots {
		run.Fingerprint ^= s.fp
		vals := perCell[s.cell]
		if vals == nil {
			vals = make(map[string][]float64)
			perCell[s.cell] = vals
		}
		for _, rv := range s.values {
			vals[rv.response] = append(vals[rv.response], rv.v)
		}
	}
	type sortable struct {
		Cell
		assignment string // the canonical "k=v k=v" form, rendered once per design cell
	}
	var sorted []sortable
	for ci, c := range cells {
		resps := make([]string, 0, len(perCell[ci]))
		for resp := range perCell[ci] {
			resps = append(resps, resp)
		}
		slices.Sort(resps)
		assignment := design.Assignment(c.assignment).String()
		for _, resp := range resps {
			vals := perCell[ci][resp]
			out := Cell{
				Experiment: c.experiment,
				Hash:       c.hash,
				Assignment: c.assignment,
				Response:   resp,
				N:          len(vals),
				Mean:       stats.Mean(vals),
			}
			if len(vals) >= 2 {
				out.Variance = stats.Variance(vals)
			}
			sorted = append(sorted, sortable{out, assignment})
		}
	}
	slices.SortFunc(sorted, func(a, b sortable) int {
		return cmp.Or(
			strings.Compare(a.Experiment, b.Experiment),
			strings.Compare(a.assignment, b.assignment),
			strings.Compare(a.Response, b.Response))
	})
	if len(sorted) > 0 {
		run.Cells = make([]Cell, len(sorted))
		for i := range sorted {
			run.Cells[i] = sorted[i].Cell
			run.Cells[i].selector = sorted[i].assignment // the one thing ingest keeps that this pass threw away
		}
	}
	return run, nil
}

// recordFingerprint folds one record's identity and measurement into
// the run fingerprint: runstore.Fingerprint (assignment + responses)
// mixed with the record key — FNV-1a over the bytes of rec.Key(), folded
// field by field so the key itself is never built — combined
// order-independently by the caller's XOR so equal record sets
// fingerprint identically across formats and orders. The value is
// persisted and compared on re-ingest: changing it would re-date every
// indexed run.
func recordFingerprint(rec runstore.Record) uint64 {
	var digits [20]byte               // the longest int64, sign included
	h := uint64(14695981039346656037) // FNV-1a offset basis
	h = fnv1a(h, rec.Experiment)
	h = fnv1a(h, "/")
	h = fnv1a(h, rec.Hash)
	h = fnv1a(h, "/")
	h = fnv1a(h, strconv.AppendInt(digits[:0], int64(rec.Replicate), 10))
	m := runstore.Fingerprint(rec)
	for i := 0; i < 8; i++ {
		h = (h ^ (m >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}
