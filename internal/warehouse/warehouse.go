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
	"repro/internal/reptable"
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
// and nothing more; Refresh reads each changed source once; every Query
// reads the index's sorted live view, which the index builds at the first
// read after a change and keeps until the next; a history Query by
// selector seeks each run's cells in the order ingest sorted them, from
// where the run before had the cell, a runs Query counts them by the
// bounds of that order's experiment blocks, and any other Query is one
// pass over the live runs' cells.
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
	idx, err := openIndex(filepath.Join(root, IndexFile), met.indexCommits)
	if err != nil {
		return nil, err
	}
	met.openSeconds.Observe(time.Since(start).Seconds())
	return &Warehouse{root: root, idx: idx, met: met, clock: clock}, nil
}

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
// the clock is read as each source's turn comes, the runs whose turns
// have come are indexed with one Put — one fsync — whenever the next
// turn's ingest is still running and at the end, the first candidate that
// fails ends the refresh with every candidate before it indexed and none
// after, and Refresh returns only once no ingest is still running.
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
	// The runs whose turns came, not yet indexed: landed with one Put
	// whenever the next turn's ingest is still running, before a failure
	// is returned, and at the end.
	var pending []Run
	land := func() error {
		if err := w.idx.Put(pending...); err != nil {
			return err
		}
		for _, run := range pending {
			rs.Ingested++
			rs.Records += run.Records
			w.met.ingestRuns.Inc()
			w.met.ingestRecords.Add(int64(run.Records))
		}
		pending = pending[:0]
		return nil
	}
	for _, t := range turns {
		if t == nil {
			rs.Unchanged++
			continue
		}
		if refreshTurn != nil {
			refreshTurn(t.done)
		}
		select {
		case <-t.done:
		default:
			if err := land(); err != nil {
				return rs, err
			}
			<-t.done
		}
		if t.err != nil {
			if err := land(); err != nil {
				return rs, err
			}
			return rs, t.err
		}
		run := t.run
		run.IngestTimeNS = w.clock().UnixNano()
		if prev, known := indexed[t.rel]; known && prev.Fingerprint == run.Fingerprint && !prev.Pruned {
			run.IngestTimeNS = prev.IngestTimeNS // touched, not changed
		}
		pending = append(pending, run)
	}
	if err := land(); err != nil {
		return rs, err
	}
	return rs, statErr
}

// refreshTurn, when set, is handed each changed source's done channel as
// its turn comes, before Refresh looks whether its ingest is done: a
// test's way to decide what Refresh finds (export_test.go).
var refreshTurn func(done <-chan struct{})

// Summarize reads the store files at paths — each once, through the
// ingest Refresh runs, with no index — into one runstore.Summary per
// experiment, sorted by experiment name, each one's rows by (assignment,
// response): the per-cell replicate count, mean and unbiased variance the
// regression gate compares. A cell's values are summed in the order its
// distinct last-wins records were first appended. The paths must hold
// disjoint cells — one file, or the shard files of one experiment — since
// a cell two paths hold is summarized twice, not pooled. A file that is
// not empty but holds no complete record — bytes that no format reads as
// a record, a torn tail alone — is an error naming it: summarized, it
// would pass for a store with no experiment. An empty file summarizes
// to nothing.
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
		if run.Records == 0 && st.Size() > 0 {
			return nil, fmt.Errorf("warehouse: %s holds no complete record (%d byte(s))", path, st.Size())
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
//
// A record costs what differs from the record of its cell before it. Per
// design cell the fold keeps (foldCell) the FNV-1a state of the cell's key,
// so that a record's fingerprint folds only its "/<replicate>" and its
// measurement; a table of its slots indexed by replicate (reptable), so
// that a record finds or claims its slot without a map, in whatever order
// its cell's replicates come; and the name each response position held
// last, which a record's name at that position is compared with, byte for
// byte, before it is taken. A record that breaks a prediction — a cell
// other than the one before, another response name — takes the cell or
// name map, and a replicate too far out for the table the table's far map.
func ingest(root, rel string, st os.FileInfo) (Run, error) {
	r, err := runstore.OpenSource(filepath.Join(root, filepath.FromSlash(rel)))
	if err != nil {
		return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
	}
	defer r.Close()
	s := foldPool.Get().(*fold)
	defer func() {
		clear(s.cells) // what the run holds of them is the run's
		foldPool.Put(s)
	}()
	s.reps.Reset()
	s.cells, s.slots, s.arena, s.tables = s.cells[:0], s.slots[:0], s.arena[:0], s.tables[:0]
	var (
		cellAt = make(map[string]int) // cell key -> cells
		ci     = -1                   // the frame's cell, which the next frame is most often in too
		nameAt = make(map[string]int) // factor or response name -> names
		names  []string               // a source's few, each allocated once
		key    []byte
		suffix [24]byte // '/' and a replicate's digits
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
		if ci < 0 || !s.cells[ci].spelled(f.Experiment, f.Hash) {
			// runstore.CellKey: looking string(key) up allocates nothing.
			key = append(append(append(key[:0], f.Experiment...), '/'), f.Hash...)
			var ok bool
			if ci, ok = cellAt[string(key)]; !ok {
				ci = s.reps.AddCell()
				s.cells = append(s.cells, foldCell{key: string(key), first: len(s.slots), h: fnv1a(fnvOffset64, key)})
				cellAt[s.cells[ci].key] = ci
			}
		}
		c := &s.cells[ci]
		i, claimed := s.reps.Slot(ci, f.Replicate)
		if claimed {
			s.slots = append(s.slots, foldSlot{cell: ci})
		}
		sl := &s.slots[i]
		sl.fp = keyedFingerprint(c.h, strconv.AppendInt(append(suffix[:0], '/'), int64(f.Replicate), 10), f.Fingerprint())
		if c.first == i {
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
		for k, resp := range f.Responses() {
			if k == len(c.responses) {
				c.responses = append(reptable.Room(&s.tables, c.responses, 4), name(resp.Name))
			} else if names[c.responses[k]] != string(resp.Name) {
				c.responses[k] = name(resp.Name)
			}
			s.arena = append(s.arena, foldValue{c.responses[k], resp.Value})
		}
	}

	cells := s.cells
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
		selector := design.Assignment(c.assignment).String() // once per design cell: sorted by here, matched by queries
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

// fold is what ingest keeps per record and per cell, pooled from source to
// source. A record's key is its cell's key, '/' and slash-free digits:
// (cell, replicate). Per cell it keeps what a record of the cell starts
// from (foldCell): the FNV-1a state of the cell's key and the response
// names by position, the tables cut from one arena; and its replicate
// table, in reps, which numbers the cells as cells does.
type (
	fold struct {
		cells  []foldCell
		reps   reptable.Table // (cell, replicate) -> slots
		slots  []foldSlot
		arena  []foldValue
		byCell []foldValue // the arena's live values, by cell
		tables []int       // the arena the cells' response tables grow in (reptable.Room)
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
		first            int    // the slot whose record names the assignment
		h                uint64 // FNV-1a over key: where every record's keyedFingerprint starts
		responses        []int  // by response position, the name (into names) the last record had there
	}
	foldValue struct {
		name int // into names
		v    float64
	}
)

var foldPool = sync.Pool{New: func() any { return new(fold) }}

// spelled reports whether experiment '/' hash is c's key, comparing in
// place.
func (c *foldCell) spelled(experiment, hash []byte) bool {
	n := len(experiment)
	return len(c.key) == n+1+len(hash) && c.key[n] == '/' && c.key[:n] == string(experiment) && c.key[n+1:] == string(hash)
}

// keyedFingerprint folds one record's identity and measurement into the
// run fingerprint: FNV-1a over the bytes of its key (runstore.Key), then
// over the eight bytes of m, its runstore.Fingerprint (assignment +
// responses) — combined order-independently by the caller's XOR so equal
// record sets fingerprint identically across formats and orders. h is the
// FNV-1a state over the key's first bytes, its cell's key, and rest the
// bytes that follow. The value is persisted and compared on re-ingest:
// changing it would re-date every indexed run (TestRecordFingerprintPinned,
// through the reference ingest is held to).
func keyedFingerprint(h uint64, rest []byte, m uint64) uint64 {
	h = fnv1a(h, rest)
	for i := 0; i < 8; i++ {
		h = (h ^ (m >> (8 * i) & 0xff)) * fnvPrime64
	}
	return h
}

const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

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

// Runs returns the live (non-pruned) indexed runs, oldest first by
// source modification time. Queries read the runs themselves; the
// warehouse, archivestore and framelog tests check the index through
// it.
func (w *Warehouse) Runs() []Run {
	w.mu.Lock()
	defer w.mu.Unlock()
	live := w.liveRuns()
	out := make([]Run, len(live))
	for i := range live {
		out[i] = live[i].Run
	}
	return out
}

// liveRuns is the index's sorted live view, shared in place: read-only.
func (w *Warehouse) liveRuns() []heldRun { return w.idx.live() }

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
// resurrect them), all with one Put. Source files are never touched.
// Prune is idempotent for a fixed policy and clock.
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
	var tombs []Run
	for _, r := range live {
		if !expired[r.Path] {
			ps.Kept++
			continue
		}
		tombs = append(tombs, Run{
			Path:         r.Path,
			Size:         r.Size,
			ModTimeNS:    r.ModTimeNS,
			IngestTimeNS: r.IngestTimeNS,
			Fingerprint:  r.Fingerprint,
			Format:       r.Format,
			Records:      r.Records,
			Pruned:       true,
		})
	}
	if err := w.idx.Put(tombs...); err != nil {
		return ps, err
	}
	ps.Pruned = len(tombs)
	return ps, nil
}
