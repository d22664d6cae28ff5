package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/design"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/stats"
)

// Options configure a Warehouse beyond its root directory. The zero
// value is the deployed default: instruments in the process-wide
// registry, wall-clock ingest times. The index always lives at
// <root>/warehouse.idx.
type Options struct {
	// Metrics is the registry the warehouse instruments register in;
	// nil means the process-wide obs.Default().
	Metrics *obs.Registry
	// Clock is the ingest-time source; nil means time.Now. Tests pin it.
	Clock func() time.Time
}

// Warehouse is a queryable result history over a directory of run
// stores. Open one with Open, keep it refreshed with Refresh, ask it
// questions with Query, bound it with Prune, and Close it when done.
// All methods are safe for concurrent use. Open replays the index file
// and nothing more; Refresh reads each changed source once; a history
// Query by selector seeks each run's cells in the order ingest sorted
// them, and any other Query is one pass over the live runs' cells.
type Warehouse struct {
	mu    sync.Mutex // serializes Refresh, Prune, and Query
	root  string
	idx   *index
	met   *metrics
	clock func() time.Time

	// t is the Student-t critical-value lookup at the confidence of the
	// last query that built intervals (zero before the first): one slot,
	// replaced when a query names another level, so queries at one level
	// pay each t-quantile once and the slot stays a handful of values
	// whatever levels are asked. Used under mu.
	t stats.TCritical
}

// Open opens the warehouse over root (which must exist), loading the
// index file. Open never reads a record and builds no query structure:
// a warehouse over a million-record directory opens in the time it
// takes to replay its index file, one pass over its bytes — and what the
// runs of one design repeat (a cell's experiment, hash, assignment and
// selector) is built once per Open, not once per run. The replay is the
// one observation warehouse_open_seconds gets.
func Open(root string, opts Options) (*Warehouse, error) {
	st, err := os.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("warehouse: root %s is not a directory", root)
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	met := newMetrics(reg)
	start := time.Now()
	idx, err := openIndex(filepath.Join(root, IndexFile))
	if err != nil {
		return nil, err
	}
	met.openSeconds.Observe(time.Since(start).Seconds())
	return &Warehouse{root: root, idx: idx, met: met, clock: clock}, nil
}

// Root returns the directory the warehouse catalogs.
func (w *Warehouse) Root() string { return w.root }

// Close releases the index file. Queries keep serving the in-memory
// view; Refresh and Prune fail afterwards.
func (w *Warehouse) Close() error { return w.idx.Close() }

// RefreshStats reports what one Refresh did.
type RefreshStats struct {
	// Candidates is how many store files the catalog discovered.
	Candidates int
	// Ingested is how many sources were read end to end — new sources
	// plus sources whose size or modification time changed.
	Ingested int
	// Unchanged is how many sources were skipped without reading a
	// record because size and modification time matched the index.
	Unchanged int
	// Records is how many records the ingested sources contributed.
	Records int
}

// Refresh reconciles the index with the catalog: new and changed
// sources are (re-)ingested, unchanged sources are skipped on a stat
// alone, and indexed runs whose source files vanished are kept — the
// warehouse is the history, the files only its substrate. A re-ingest
// whose content fingerprint is unchanged (the file was touched, not
// rewritten) keeps the run's original ingest time. A pruned run's
// tombstone suppresses re-ingest until its source actually changes.
//
// Changed sources are read on GOMAXPROCS goroutines, but everything a
// caller can observe happens in catalog order on the calling goroutine:
// the clock is read and the run Put as each source's turn comes, the
// first candidate that fails ends the refresh with every candidate before
// it indexed and none after, and Refresh returns only once no ingest is
// still running.
func (w *Warehouse) Refresh() (RefreshStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var rs RefreshStats
	candidates, err := Discover(w.root)
	if err != nil {
		return rs, err
	}
	rs.Candidates = len(candidates)
	indexed := make(map[string]Run)
	for _, r := range w.idx.Runs() {
		indexed[r.Path] = r
	}

	// One turn per candidate, in catalog order: nil for a source skipped
	// on its stat, the ingest to wait for otherwise. A stat that fails
	// ends the list; its error is returned when its turn comes.
	type turn struct {
		rel  string
		st   os.FileInfo
		run  Run
		err  error
		done chan struct{}
	}
	var turns []*turn
	var statErr error
	reads := make(chan *turn, len(candidates)) // every send lands before the first receive
	for _, rel := range candidates {
		st, err := os.Stat(filepath.Join(w.root, filepath.FromSlash(rel)))
		if err != nil {
			statErr = fmt.Errorf("warehouse: %s: %w", rel, err)
			break
		}
		if prev, known := indexed[rel]; known && prev.Size == st.Size() && prev.ModTimeNS == st.ModTime().UnixNano() {
			turns = append(turns, nil)
			continue
		}
		t := &turn{rel: rel, st: st, done: make(chan struct{})}
		turns = append(turns, t)
		reads <- t
	}
	close(reads)

	var stop atomic.Bool // set when Refresh is through: start no further read
	var wg sync.WaitGroup
	defer wg.Wait()
	defer stop.Store(true)
	for range min(runtime.GOMAXPROCS(0), len(reads)) {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for t := range reads {
				if stop.Load() {
					return
				}
				start := time.Now()
				t.run, t.err = ingest(w.root, t.rel, t.st)
				w.met.ingestSeconds.Observe(time.Since(start).Seconds())
				close(t.done)
			}
		}()
	}
	for _, t := range turns {
		if t == nil {
			rs.Unchanged++
			continue
		}
		<-t.done
		if t.err != nil {
			return rs, t.err
		}
		run := t.run
		run.IngestTimeNS = w.clock().UnixNano()
		if prev, known := indexed[t.rel]; known && prev.Fingerprint == run.Fingerprint && !prev.Pruned {
			run.IngestTimeNS = prev.IngestTimeNS // touched, not changed
		}
		if err := w.idx.Put(run); err != nil {
			return rs, err
		}
		rs.Ingested++
		rs.Records += run.Records
		w.met.ingestRuns.Inc()
		w.met.ingestRecords.Add(int64(run.Records))
	}
	return rs, statErr
}

// Summarize reads the store files at paths — each once, through the
// ingest Refresh runs, with no index — into one runstore.Summary per
// experiment, sorted by experiment name, each one's rows by (assignment,
// response): the per-cell replicate count, mean and unbiased variance the
// regression gate compares. A cell's values are summed in the order its
// distinct last-wins records were first appended. The paths must hold
// disjoint cells — one file, or the shard files of one experiment — since
// a cell two paths hold is summarized twice, not pooled.
func Summarize(paths ...string) ([]*runstore.Summary, error) {
	var cells []Cell
	for _, path := range paths {
		st, err := os.Stat(path)
		if err != nil {
			return nil, fmt.Errorf("warehouse: %w", err)
		}
		run, err := ingest("", path, st)
		if err != nil {
			return nil, err
		}
		cells = append(cells, run.Cells...)
	}
	slices.SortFunc(cells, func(a, b Cell) int { return compareCells(&a, &b) })
	var out []*runstore.Summary
	for _, c := range cells {
		if len(out) == 0 || out[len(out)-1].Experiment != c.Experiment {
			out = append(out, &runstore.Summary{Experiment: c.Experiment})
		}
		s := out[len(out)-1]
		s.Rows = append(s.Rows, runstore.SummaryRow{
			Hash: c.Hash, Assignment: c.Assignment, Response: c.Response,
			N: c.N, Mean: c.Mean, Variance: c.Variance,
		})
	}
	return out, nil
}

// ingest reads one source end to end — each frame once, through the
// reader's Fields, building no record — into its run summary, ingest time
// aside: per cell the replicate count, mean and unbiased variance over the
// distinct last-wins records, and the order-independent fingerprint.
//
// The result is, bit for bit, what aggregating runstore.ScanFile's
// sequence gives — the distinct records in first-appended order — which a
// differential test holds it to. Overwriting by key is idempotent, so that
// order falls out of one rule: a key's first frame claims the next slot,
// and a superseding frame replaces, in that slot, what the frame before it
// left (its fingerprint, its values and, for its cell's first slot, the
// cell's assignment). What outlives a step's view is copied out of it: a
// record's fingerprint and values into a scratch reused from source to
// source, so that a record allocates nothing, and per cell its key (which
// the experiment and hash are cut from) and its assignment, whose canonical
// string is the cell's selector.
func ingest(root, rel string, st os.FileInfo) (Run, error) {
	r, err := runstore.OpenSource(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
	}
	defer r.Close()
	s := foldPool.Get().(*fold)
	defer foldPool.Put(s)
	clear(s.slotAt) // keeps its buckets, as truncation keeps an array
	s.slots, s.arena = s.slots[:0], s.arena[:0]
	var (
		cells  []foldCell
		cellAt = make(map[string]int) // cell key -> cells
		ci     = -1                   // the frame's cell, which the next frame is most often in too
		nameAt = make(map[string]int) // factor or response name -> names
		names  []string               // a source's few, each allocated once
		key    []byte
	)
	name := func(b []byte) int {
		n, ok := nameAt[string(b)]
		if !ok {
			n, names = len(names), append(names, string(b))
			nameAt[names[n]] = n
		}
		return n
	}
	for f, err := range r.Fields() {
		if err != nil {
			return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
		}
		// runstore.CellKey, then runstore.Key: looking string(key) up allocates nothing.
		key = append(append(append(key[:0], f.Experiment...), '/'), f.Hash...)
		if ci < 0 || cells[ci].key != string(key) {
			var ok bool
			if ci, ok = cellAt[string(key)]; !ok {
				ci = len(cells)
				cells = append(cells, foldCell{key: string(key), first: len(s.slots)})
				cellAt[cells[ci].key] = ci
			}
		}
		i, seen := s.slotAt[[2]int{ci, f.Replicate}]
		if !seen {
			i = len(s.slots)
			s.slots = append(s.slots, foldSlot{cell: ci})
			s.slotAt[[2]int{ci, f.Replicate}] = i
		}
		key = strconv.AppendInt(append(key, '/'), int64(f.Replicate), 10)
		sl := &s.slots[i]
		sl.fp = keyedFingerprint(key, f.Fingerprint())
		if c := &cells[ci]; c.first == i {
			c.experiment, c.hash = c.key[:len(f.Experiment)], c.key[len(f.Experiment)+1:]
			c.assignment = nil
			if a := f.Assignment(); a != nil {
				c.assignment = make(map[string]string, len(a))
				for _, p := range a {
					c.assignment[names[name(p.Key)]] = string(p.Value)
				}
			}
		}
		sl.off, sl.n = len(s.arena), len(f.Responses())
		for _, resp := range f.Responses() {
			s.arena = append(s.arena, foldValue{name(resp.Name), resp.Value})
		}
	}

	run := Run{
		Path:      rel,
		Size:      st.Size(),
		ModTimeNS: st.ModTime().UnixNano(),
		Format:    formatName(rel),
		Records:   len(s.slots),
	}
	// Each cell's values in slot order, as ScanFile yields its records, so the
	// sums below add in its order: a counting sort, cell ci's ending at end[ci].
	end := make([]int, len(cells))
	for _, sl := range s.slots {
		run.Fingerprint ^= sl.fp
		end[sl.cell] += sl.n
	}
	for ci, at := 0, 0; ci < len(end); ci++ {
		end[ci], at = at, at+end[ci]
	}
	s.byCell = slices.Grow(s.byCell[:0], len(s.arena))[:len(s.arena)]
	for _, sl := range s.slots {
		end[sl.cell] += copy(s.byCell[end[sl.cell]:], s.arena[sl.off:][:sl.n])
	}
	byName := make([][]float64, len(names)) // by response, one cell's values
	lo, resps := 0, []int(nil)
	for ci, c := range cells {
		in := s.byCell[lo:end[ci]]
		lo, resps = end[ci], resps[:0]
		for _, v := range in {
			if len(byName[v.name]) == 0 {
				resps = append(resps, v.name)
			}
			byName[v.name] = append(byName[v.name], v.v)
		}
		slices.SortFunc(resps, func(a, b int) int { return strings.Compare(names[a], names[b]) })
		selector := assignmentString(c.assignment) // once per design cell: sorted by here, matched by queries
		for _, n := range resps {
			vals := byName[n]
			byName[n] = vals[:0]
			out := Cell{
				Experiment: c.experiment,
				Hash:       c.hash,
				Assignment: c.assignment,
				Response:   names[n],
				N:          len(vals),
				Mean:       stats.Mean(vals),
				selector:   selector,
			}
			if len(vals) >= 2 {
				out.Variance = stats.Variance(vals)
			}
			run.Cells = append(run.Cells, out)
		}
	}
	slices.SortFunc(run.Cells, func(a, b Cell) int { return compareCells(&a, &b) })
	return run, nil
}

// fold is what ingest keeps per record, pooled from source to source. A
// record's key is its cell's key, '/' and slash-free digits: (cell, replicate).
type (
	fold struct {
		slotAt map[[2]int]int // (cell, replicate) -> slots
		slots  []foldSlot
		arena  []foldValue
		byCell []foldValue // the arena's live values, by cell
	}
	foldSlot struct { // one distinct record, in first-appended order
		cell   int    // index into cells
		fp     uint64 // keyedFingerprint of the frame that holds the slot
		off, n int    // its values: arena[off:off+n]
	}
	foldCell struct { // one design cell, in first-appearance order
		key              string // runstore.CellKey
		experiment, hash string // cut from key
		assignment       map[string]string
		first            int // the slot whose record names the assignment
	}
	foldValue struct {
		name int // into names
		v    float64
	}
)

var foldPool = sync.Pool{New: func() any { return &fold{slotAt: make(map[[2]int]int)} }}

// keyedFingerprint folds one record's identity and measurement into the
// run fingerprint: FNV-1a over the bytes of its key (runstore.Key), then
// over the eight bytes of m, its runstore.Fingerprint (assignment +
// responses) — combined order-independently by the caller's XOR so equal
// record sets fingerprint identically across formats and orders. The
// value is persisted and compared on re-ingest: changing it would re-date
// every indexed run (TestRecordFingerprintPinned, through the reference
// ingest is held to).
func keyedFingerprint(key []byte, m uint64) uint64 {
	h := fnv1a(14695981039346656037, key) // from the FNV-1a offset basis
	for i := 0; i < 8; i++ {
		h = (h ^ (m >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

const fnvPrime64 = 1099511628211

// fnv1a folds the bytes of s into h.
func fnv1a[S string | []byte](h uint64, s S) uint64 {
	for i := 0; i < len(s); i++ {
		h = (h ^ uint64(s[i])) * fnvPrime64
	}
	return h
}

// formatName maps a source extension to its display format name.
func formatName(rel string) string {
	switch strings.ToLower(filepath.Ext(rel)) {
	case ".binj":
		return "binary"
	case ".arch", ".archz":
		return "archive"
	default:
		return "journal"
	}
}

// assignmentString renders an assignment in the repository's canonical
// sorted "k=v k=v" form — the cell identity queries match against.
func assignmentString(a map[string]string) string {
	return design.Assignment(a).String()
}

// Runs returns the live (non-pruned) indexed runs, oldest first by
// source modification time. Queries read the runs themselves; the
// warehouse, archivestore and framelog tests check the index through
// it.
func (w *Warehouse) Runs() []Run {
	w.mu.Lock()
	defer w.mu.Unlock()
	return slices.DeleteFunc(w.idx.Runs(), func(r Run) bool { return r.Pruned })
}

func (w *Warehouse) liveRuns() []heldRun {
	return slices.DeleteFunc(w.idx.held(), func(r heldRun) bool { return r.Pruned })
}

// Retention is the warehouse's pruning policy. Both knobs bound the
// index; a run is pruned when either says so.
type Retention struct {
	// KeepRuns, when > 0, keeps only the newest KeepRuns live runs (by
	// source modification time).
	KeepRuns int
	// MaxAge, when > 0, prunes live runs whose source modification time
	// is older than MaxAge before now.
	MaxAge time.Duration
}

// PruneStats reports what one Prune did.
type PruneStats struct {
	// Pruned is how many runs were tombstoned by this call.
	Pruned int
	// Kept is how many live runs remain.
	Kept int
}

// Prune applies a retention policy to the index: expired runs are
// replaced by tombstones (their aggregates drop out of every query,
// their identity and change-detection meta stay so a Refresh does not
// resurrect them). Source files are never touched. Prune is idempotent
// for a fixed policy and clock.
func (w *Warehouse) Prune(pol Retention) (PruneStats, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	var ps PruneStats
	live := w.liveRuns() // oldest first
	now := w.clock()
	expired := make(map[string]bool)
	if pol.MaxAge > 0 {
		cutoff := now.Add(-pol.MaxAge).UnixNano()
		for _, r := range live {
			if r.ModTimeNS < cutoff {
				expired[r.Path] = true
			}
		}
	}
	if pol.KeepRuns > 0 && len(live) > pol.KeepRuns {
		for _, r := range live[:len(live)-pol.KeepRuns] {
			expired[r.Path] = true
		}
	}
	for _, r := range live {
		if !expired[r.Path] {
			ps.Kept++
			continue
		}
		tomb := Run{
			Path:         r.Path,
			Size:         r.Size,
			ModTimeNS:    r.ModTimeNS,
			IngestTimeNS: r.IngestTimeNS,
			Fingerprint:  r.Fingerprint,
			Format:       r.Format,
			Records:      r.Records,
			Pruned:       true,
		}
		if err := w.idx.Put(tomb); err != nil {
			return ps, err
		}
		ps.Pruned++
	}
	return ps, nil
}
