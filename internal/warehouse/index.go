package warehouse

import (
	"bytes"
	"fmt"
	"os"
	"slices"
	"sort"
	"sync"

	"repro/internal/framelog"
)

// Run is one ingested store file's summary — the unit of history. Path
// (relative to the warehouse root, slash-separated) is the run's
// identity; Size, ModTimeNS, and Fingerprint are the change-detection
// seam Refresh uses; Cells carry the per-cell aggregates every query
// answers from.
type Run struct {
	// Path is the run id: the source file's slash path under the root.
	Path string `json:"path"`
	// Size is the source file's byte size at ingest time.
	Size int64 `json:"size"`
	// ModTimeNS is the source file's modification time (Unix
	// nanoseconds) at ingest time; history orders runs by it.
	ModTimeNS int64 `json:"mod_time_ns"`
	// IngestTimeNS is when the warehouse first ingested this content
	// (Unix nanoseconds); a re-ingest whose content fingerprint is
	// unchanged keeps it.
	IngestTimeNS int64 `json:"ingest_time_ns"`
	// Fingerprint is an order-independent combination of every record's
	// runstore.Fingerprint and key — equal record sets fingerprint
	// identically regardless of store format or record order.
	Fingerprint uint64 `json:"fingerprint"`
	// Format names the source's on-disk format ("journal", "binary",
	// "archive"), for display only.
	Format string `json:"format"`
	// Records is the distinct last-wins record count of the source.
	Records int `json:"records"`
	// Pruned marks a retention tombstone: the run left the queryable
	// history but its identity (and change-detection meta) is kept so a
	// Refresh does not silently resurrect it.
	Pruned bool `json:"pruned,omitempty"`
	// Cells are the run's per-(experiment, cell, response) aggregates,
	// sorted by (experiment, assignment, response). Empty on tombstones.
	Cells []Cell `json:"cells,omitempty"`
}

// Cell is one (experiment, design cell, response) aggregate of one run:
// everything a Student-t confidence interval needs, without the raw
// replicate values. The three fields that name the design cell are shared,
// not copied: the aggregates of one design cell hold one Assignment map —
// within a run, and after a replay across every run of the index — so the
// map is read-only to everyone.
type Cell struct {
	// Experiment names the experiment the cell belongs to.
	Experiment string `json:"experiment"`
	// Hash is the cell's assignment hash (runstore.AssignmentHash).
	Hash string `json:"hash"`
	// Assignment is the cell's factor-level assignment.
	Assignment map[string]string `json:"assignment"`
	// Response names the measured response.
	Response string `json:"response"`
	// N is the replicate count.
	N int `json:"n"`
	// Mean is the arithmetic mean of the replicate values.
	Mean float64 `json:"mean"`
	// Variance is the unbiased sample variance (divisor n-1); 0 when
	// N < 2.
	Variance float64 `json:"variance"`

	// selector is Assignment in the canonical sorted "k=v k=v" form: the
	// second thing, after Hash, a Request.Cell may name the cell by. It is
	// part of every cell the index holds and never of the document: ingest
	// renders it once per design cell (it sorts by it), the replay once per
	// design cell per Open, and withSelectors for a run built any other
	// way — never a query.
	selector string
}

// withSelectors returns cells with every selector present: cells itself
// when none is missing, else a copy with the missing ones rendered — a
// run built by hand is its builder's, and is left as it was. An empty
// assignment's selector is the empty string, which no query matches.
func withSelectors(cells []Cell) []Cell {
	missing := func(c *Cell) bool { return c.selector == "" && len(c.Assignment) > 0 }
	for i := range cells {
		if !missing(&cells[i]) {
			continue
		}
		out := slices.Clone(cells)
		for j := i; j < len(out); j++ {
			if missing(&out[j]) {
				out[j].selector = assignmentString(out[j].Assignment)
			}
		}
		return out
	}
	return cells
}

const (
	// IndexMagic is the 8-byte header every warehouse index file starts
	// with. The digit is the format version: an incompatible change to
	// the frame or payload layout bumps it, so old readers reject new
	// files instead of misparsing them.
	IndexMagic = "PEVWHS1\n"
	// IndexFile is the index file name under the warehouse root. The
	// catalog never ingests it.
	IndexFile = "warehouse.idx"

	// maxIndexFrame bounds a frame payload so a corrupt length field
	// cannot drive a multi-gigabyte allocation during recovery scans.
	maxIndexFrame = 1 << 28
)

// indexFraming is the index file's framing: framelog's checksummed
// frames — the binary record journal's — each holding one Run's JSON
// document (codec.go).
var indexFraming = framelog.Frames("warehouse index", IndexMagic, maxIndexFrame)

// index is the warehouse's durable run index: an append-only framelog
// file with the crash discipline every log in the repository shares —
// one write plus one fsync per Put, torn trailing frame truncated on
// open, corrupt interior frame an error, fail-stop after a failed Put —
// under an in-memory last-wins view. It is safe for concurrent use.
type index struct {
	mu   sync.Mutex
	log  *framelog.Log
	runs map[string]Run // last-wins by Run.Path
}

// openIndex opens (creating if absent) the index file at path. A torn
// trailing frame — a crash mid-Put — is truncated; a corrupt interior
// frame or a foreign magic header is an error, because silently
// dropping indexed history would let a stale index masquerade as a
// fresh one.
func openIndex(path string) (*index, error) {
	x := &index{runs: make(map[string]Run)}
	log, err := framelog.Open(path, indexFraming, collectRuns(x.runs))
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	x.log = log
	return x, nil
}

// collectRuns is the index scan callback: it decodes each frame's Run
// into runs, last frame per path winning. The frames of one scan share one
// replay dictionary, which lives as long as the callback does: it is gone
// when the scan returns, and nothing of it is kept between queries but the
// values the runs themselves hold.
func collectRuns(runs map[string]Run) framelog.Visit {
	rp := newReplay()
	return func(payload []byte, off, _ int64) error {
		r, err := decodeRun(payload, rp)
		if err != nil {
			return framelog.Corrupt(fmt.Errorf("corrupt index frame at byte %d: %v", off, err))
		}
		if r.Path == "" {
			return framelog.Corrupt(fmt.Errorf("corrupt index frame at byte %d: run without a path", off))
		}
		runs[r.Path] = r
		return nil
	}
}

// Runs returns the last-wins view of every indexed run — tombstones
// included — sorted by (ModTimeNS, Path).
func (x *index) Runs() []Run {
	x.mu.Lock()
	out := make([]Run, 0, len(x.runs))
	for _, r := range x.runs {
		out = append(out, r)
	}
	x.mu.Unlock()
	sort.Slice(out, func(i, j int) bool {
		if out[i].ModTimeNS != out[j].ModTimeNS {
			return out[i].ModTimeNS < out[j].ModTimeNS
		}
		return out[i].Path < out[j].Path
	})
	return out
}

// encodeIndexFrame frames one Run as its on-disk index bytes.
func encodeIndexFrame(r Run) ([]byte, error) {
	// Sized so an ordinary run's document is appended without regrowing.
	frame := indexFraming.Reserve(make([]byte, 0, 256+192*len(r.Cells)))
	frame, err := appendRun(frame, r)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	return indexFraming.Seal(frame, 0), nil
}

// Put durably inserts or replaces one run's summary, keyed by Path: one
// frame appended with a single Write call followed by Sync, so a crash
// leaves at most one torn frame. A cell that comes without its selector —
// a run built by hand rather than by ingest — is held with it.
func (x *index) Put(r Run) error {
	if r.Path == "" {
		return fmt.Errorf("warehouse: run needs a path")
	}
	frame, err := encodeIndexFrame(r)
	if err != nil {
		return err
	}
	r.Cells = withSelectors(r.Cells)
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.log.Commit(frame); err != nil {
		return err
	}
	x.runs[r.Path] = r
	return nil
}

// Close releases the file; Runs keeps serving the in-memory view, Put
// fails afterwards.
func (x *index) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.log.Close()
}

// Torn reports whether a torn trailing frame was truncated on open —
// surfaced for tests and inspection tooling.
func (x *index) Torn() bool { return x.log.Torn() }

// readFrames decodes every frame of an index file image through the
// scan Open uses, reporting the intact run view and whether a torn tail
// follows it. InspectIndex reads through it, and the fuzz target drives
// the decoder through it.
func readFrames(data []byte) (map[string]Run, bool, error) {
	runs := make(map[string]Run)
	_, torn, err := indexFraming.ScanFile(bytes.NewReader(data), collectRuns(runs))
	if err != nil {
		return nil, false, err
	}
	return runs, torn, nil
}

// InspectIndex reports the shape of an index file without opening it
// for writing: run and tombstone counts and whether the tail was torn.
// The index, golden, property and framelog poison tests read an index
// file through it.
func InspectIndex(path string) (runs, pruned int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("warehouse: %w", err)
	}
	view, torn, err := readFrames(data)
	if err != nil {
		return 0, 0, false, fmt.Errorf("warehouse: %s: %w", path, err)
	}
	for _, r := range view {
		if r.Pruned {
			pruned++
		}
	}
	return len(view), pruned, torn, nil
}
