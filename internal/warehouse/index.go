package warehouse

import (
	"cmp"
	"fmt"
	"maps"
	"slices"
	"strings"
	"sync"

	"repro/internal/design"
	"repro/internal/framelog"
	"repro/internal/obs"
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
	// Cells are the run's per-(experiment, cell, response) aggregates.
	// Ingest sorts them by (experiment, selector, response) — byte order of
	// the experiment, then of the canonical "k=v k=v" assignment string,
	// then of the response — and a history query seeks that order instead
	// of scanning (seekable). A run built or stored any other way may hold
	// them in any order; it is scanned. Empty on tombstones.
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
				out[j].selector = design.Assignment(out[j].Assignment).String()
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
// one write plus one fsync per Put, however many runs it lands, torn
// trailing frame truncated on open, corrupt interior frame an error,
// fail-stop after a failed Put — under an in-memory last-wins view.
// Beside each run it keeps one fact the file does not hold, whether the
// run is seekable, decided once when the run enters the view; and beside
// the view, the sorted live view every query reads (live), built at the
// first read after a Put and dropped by the next. It is safe for
// concurrent use.
type index struct {
	mu       sync.Mutex
	log      *framelog.Log
	runs     map[string]Run  // last-wins by Run.Path
	seekable map[string]bool // by Run.Path: seekable(runs[path].Cells)
	view     []heldRun       // live's answer since the last Put; nil until built (make never returns nil)
	commits  *obs.Counter    // warehouse_index_commits_total: one per Put that committed
}

// heldRun is one run of the index's view with the fact the index keeps
// about it.
type heldRun struct {
	Run
	seekable bool // seekable(Run.Cells)
}

// openIndex opens (creating if absent) the index file at path. A torn
// trailing frame — a crash mid-Put — is truncated; a corrupt interior
// frame or a foreign magic header is an error, because silently
// dropping indexed history would let a stale index masquerade as a
// fresh one.
func openIndex(path string, commits *obs.Counter) (*index, error) {
	x := &index{runs: make(map[string]Run), seekable: make(map[string]bool), commits: commits}
	log, err := framelog.Open(path, indexFraming, collectRuns(x.runs, x.seekable))
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	x.log = log
	return x, nil
}

// collectRuns is the index scan callback: it decodes each frame's Run
// into runs, last frame per path winning, and, when seek is not nil,
// whether the run is seekable into seek. The frames of one scan share one
// replay dictionary, which lives as long as the callback does: it is gone
// when the scan returns, and nothing of it is kept between queries but the
// values the runs themselves hold.
func collectRuns(runs map[string]Run, seek map[string]bool) framelog.Visit {
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
		if seek != nil {
			seek[r.Path] = seekable(r.Cells)
		}
		return nil
	}
}

// seekable reports whether a history query may seek cells instead of
// scanning them: they are in ingest's (experiment, selector, response)
// order, and no hash contains '='. Every non-empty selector contains '='
// (a "k=v" pair), so a Request.Cell that does can then name a cell only
// by its selector, and the cells it names are one contiguous span of each
// experiment's block.
func seekable(cells []Cell) bool {
	for i := range cells {
		if strings.IndexByte(cells[i].Hash, '=') >= 0 {
			return false
		}
		if i > 0 && compareCells(&cells[i-1], &cells[i]) > 0 {
			return false
		}
	}
	return true
}

// compareCells orders cells the way ingest sorts them. Unlike cmp.Or,
// it compares a field only when the ones before it tie.
func compareCells(a, b *Cell) int {
	if c := strings.Compare(a.Experiment, b.Experiment); c != 0 {
		return c
	}
	if c := strings.Compare(a.selector, b.selector); c != 0 {
		return c
	}
	return strings.Compare(a.Response, b.Response)
}

// Runs returns the last-wins view of every indexed run — tombstones
// included — sorted by (ModTimeNS, Path), in a slice of the caller's own.
func (x *index) Runs() []Run {
	x.mu.Lock()
	out := slices.Collect(maps.Values(x.runs))
	x.mu.Unlock()
	slices.SortFunc(out, func(a, b Run) int { return runOrder(&a, &b) })
	return out
}

// live returns the sorted live view: the runs that are not tombstones,
// sorted by (ModTimeNS, Path), each with its seekable fact. It is built
// at the first call after a Put and shared by every call until the next,
// so it is read-only to everyone: a Put replaces it, and leaves a view
// taken before as it was.
func (x *index) live() []heldRun {
	x.mu.Lock()
	defer x.mu.Unlock()
	if x.view == nil {
		view := make([]heldRun, 0, len(x.runs))
		for path, r := range x.runs {
			if !r.Pruned {
				view = append(view, heldRun{r, x.seekable[path]})
			}
		}
		slices.SortFunc(view, func(a, b heldRun) int { return runOrder(&a.Run, &b.Run) })
		x.view = view
	}
	return x.view
}

// runOrder is history's order: by source modification time, then path.
func runOrder(a, b *Run) int {
	return cmp.Or(cmp.Compare(a.ModTimeNS, b.ModTimeNS), strings.Compare(a.Path, b.Path))
}

// encodeIndexFrame frames one Run as its on-disk index bytes.
func encodeIndexFrame(r Run) ([]byte, error) {
	return appendIndexFrame(make([]byte, 0, frameRoom(r)), r)
}

// frameRoom is a buffer size an ordinary run's frame is appended to
// without regrowing.
func frameRoom(r Run) int { return 256 + 192*len(r.Cells) }

// appendIndexFrame appends one Run's frame to dst.
func appendIndexFrame(dst []byte, r Run) ([]byte, error) {
	start := len(dst)
	frame, err := appendRun(indexFraming.Reserve(dst), r)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	return indexFraming.Seal(frame, start), nil
}

// Put durably inserts or replaces runs' summaries, keyed by Path: their
// frames, in the order given, appended with a single Write call followed
// by Sync — one commit however many runs — so a crash leaves the whole
// frames before it and at most one torn frame. The view changes only once
// the commit settled, and all at once. A cell that comes without its
// selector — a run built by hand rather than by ingest — is held with it.
// Put of no run commits nothing.
func (x *index) Put(runs ...Run) error {
	if len(runs) == 0 {
		return nil
	}
	room := 0
	for _, r := range runs {
		room += frameRoom(r)
	}
	frames, held := make([]byte, 0, room), make([]heldRun, len(runs))
	for i, r := range runs {
		if r.Path == "" {
			return fmt.Errorf("warehouse: run needs a path")
		}
		var err error
		if frames, err = appendIndexFrame(frames, r); err != nil {
			return err
		}
		r.Cells = withSelectors(r.Cells)
		held[i] = heldRun{r, seekable(r.Cells)}
	}
	x.mu.Lock()
	defer x.mu.Unlock()
	if err := x.log.Commit(frames, nil); err != nil {
		return err
	}
	x.commits.Inc()
	for _, h := range held {
		x.runs[h.Path] = h.Run
		x.seekable[h.Path] = h.seekable
	}
	x.view = nil
	return nil
}

// Close releases the file; Runs keeps serving the in-memory view, Put
// fails afterwards.
func (x *index) Close() error {
	x.mu.Lock()
	defer x.mu.Unlock()
	return x.log.Close()
}
