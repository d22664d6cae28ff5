package warehouse

import (
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
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
// All methods are safe for concurrent use.
type Warehouse struct {
	mu    sync.Mutex // serializes Refresh, Prune, and Query
	root  string
	idx   *index
	met   *metrics
	clock func() time.Time
}

// Open opens the warehouse over root (which must exist), loading the
// index file. Open never reads a record: a warehouse over a
// million-record directory opens in O(index).
func Open(root string, opts Options) (*Warehouse, error) {
	st, err := os.Stat(root)
	if err != nil {
		return nil, fmt.Errorf("warehouse: %w", err)
	}
	if !st.IsDir() {
		return nil, fmt.Errorf("warehouse: root %s is not a directory", root)
	}
	idx, err := openIndex(filepath.Join(root, IndexFile))
	if err != nil {
		return nil, err
	}
	reg := opts.Metrics
	if reg == nil {
		reg = obs.Default()
	}
	clock := opts.Clock
	if clock == nil {
		clock = time.Now
	}
	return &Warehouse{root: root, idx: idx, met: newMetrics(reg), clock: clock}, nil
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
	for _, rel := range candidates {
		st, err := os.Stat(filepath.Join(w.root, filepath.FromSlash(rel)))
		if err != nil {
			return rs, fmt.Errorf("warehouse: %s: %w", rel, err)
		}
		prev, known := indexed[rel]
		if known && prev.Size == st.Size() && prev.ModTimeNS == st.ModTime().UnixNano() {
			rs.Unchanged++
			continue
		}
		run, err := w.ingest(rel, st)
		if err != nil {
			return rs, err
		}
		if known && prev.Fingerprint == run.Fingerprint && !prev.Pruned {
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
	return rs, nil
}

// ingest reads one source end to end and builds its run summary: the
// per-cell aggregates (replicate count, mean, unbiased variance over
// the distinct last-wins records) and the order-independent content
// fingerprint. It is the only place the warehouse reads record data.
func (w *Warehouse) ingest(rel string, st os.FileInfo) (Run, error) {
	abs := filepath.Join(w.root, filepath.FromSlash(rel))
	type acc struct {
		experiment string
		hash       string
		assignment map[string]string
		values     map[string][]float64 // response -> replicate values, scan order
	}
	cells := make(map[string]*acc) // CellKey -> acc
	var order []string
	var records int
	var fp uint64
	for rec, err := range runstore.ScanFile(abs) {
		if err != nil {
			return Run{}, fmt.Errorf("warehouse: ingesting %s: %w", rel, err)
		}
		records++
		fp ^= recordFingerprint(rec)
		ck := runstore.CellKey(rec.Experiment, rec.Hash)
		c := cells[ck]
		if c == nil {
			c = &acc{
				experiment: rec.Experiment,
				hash:       rec.Hash,
				assignment: rec.Assignment,
				values:     make(map[string][]float64),
			}
			cells[ck] = c
			order = append(order, ck)
		}
		for resp, v := range rec.Responses {
			c.values[resp] = append(c.values[resp], v)
		}
	}
	run := Run{
		Path:         rel,
		Size:         st.Size(),
		ModTimeNS:    st.ModTime().UnixNano(),
		IngestTimeNS: w.clock().UnixNano(),
		Fingerprint:  fp,
		Format:       formatName(rel),
		Records:      records,
	}
	for _, ck := range order {
		c := cells[ck]
		resps := make([]string, 0, len(c.values))
		for resp := range c.values {
			resps = append(resps, resp)
		}
		sort.Strings(resps)
		for _, resp := range resps {
			vals := c.values[resp]
			cell := Cell{
				Experiment: c.experiment,
				Hash:       c.hash,
				Assignment: c.assignment,
				Response:   resp,
				N:          len(vals),
				Mean:       stats.Mean(vals),
			}
			if len(vals) >= 2 {
				cell.Variance = stats.Variance(vals)
			}
			run.Cells = append(run.Cells, cell)
		}
	}
	sort.Slice(run.Cells, func(i, j int) bool {
		a, b := run.Cells[i], run.Cells[j]
		if a.Experiment != b.Experiment {
			return a.Experiment < b.Experiment
		}
		if as, bs := assignmentString(a.Assignment), assignmentString(b.Assignment); as != bs {
			return as < bs
		}
		return a.Response < b.Response
	})
	return run, nil
}

// recordFingerprint folds one record's identity and measurement into
// the run fingerprint: runstore.Fingerprint (assignment + responses)
// mixed with the record key, combined order-independently by the
// caller's XOR so equal record sets fingerprint identically across
// formats and orders.
func recordFingerprint(rec runstore.Record) uint64 {
	const prime64 = 1099511628211
	h := uint64(14695981039346656037) // FNV-1a offset basis
	for _, b := range []byte(rec.Key()) {
		h = (h ^ uint64(b)) * prime64
	}
	m := runstore.Fingerprint(rec)
	for i := 0; i < 8; i++ {
		h = (h ^ (m >> (8 * i) & 0xff)) * prime64
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
// source modification time.
func (w *Warehouse) Runs() []Run {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.liveRuns()
}

func (w *Warehouse) liveRuns() []Run {
	var out []Run
	for _, r := range w.idx.Runs() {
		if !r.Pruned {
			out = append(out, r)
		}
	}
	return out
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
