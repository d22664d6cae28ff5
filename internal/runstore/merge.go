package runstore

import (
	"cmp"
	"errors"
	"fmt"
	"iter"
	"math"
	"runtime"
	"slices"
	"strings"
	"sync"
	"sync/atomic"
)

// Conflict is one key whose stored measurements disagree across merge
// sources — two workers measured the same (experiment, assignment,
// replicate) unit and got different responses. In the disjoint-shard
// workflow this never happens; it signals overlapping shard assignments
// or workers run against different builds.
type Conflict struct {
	Key     string // runstore key of the disputed unit
	Earlier string // source path whose record was overridden
	Later   string // source path whose record won (last-wins)
}

// MergeStats reports what one Merge did.
type MergeStats struct {
	Sources     int        // source files read
	Kept        int        // distinct records written to the destination
	Superseded  int        // records dropped by last-wins (within and across sources)
	Conflicts   []Conflict // cross-source disagreements (last source still wins)
	TornSources int        // sources whose torn trailing line was dropped
}

// Merge folds the journals at srcs into a single journal at dst:
// last-wins per (experiment, hash, replicate) key in source order (and in
// append order within a source), with cross-source disagreements reported
// as Conflicts. Torn trailing lines in sources are dropped exactly as
// Open would drop them, so merging the shards of a crashed worker is
// safe.
//
// The output is written in canonical order — (experiment, design row,
// replicate, hash) — so a merged journal is byte-identical regardless of
// how work was sharded across writers: N disjoint shard journals merge to
// the same bytes a single-writer journal of the same run merges to.
// Merging a single source therefore canonicalizes a journal in place.
//
// Merge streams: an index pass reduces each source to lightweight
// entries (key, canonical position, measurement fingerprint, extent) —
// read on up to GOMAXPROCS goroutines at once, sources side by side and a
// line-framed journal in sections cut just past a newline, joined in file
// order; then the entry lists folded in source order, which is what
// last-wins and the Conflicts are defined on, and each source's winners
// kept in the order they were read (a list not already canonical is
// sorted) — then the destination is written by k-way ordered iteration
// over the per-source winner lists, one record at a time. A winner whose stored
// frame is already what the destination's codec would write for it —
// the ordinary case, a journal merged into a journal of the same
// encoding — is copied from its source; any other (a hand-edited line,
// an archive payload, the other encoding) is decoded and re-encoded. The
// bytes written are the same either way.
// Peak memory is the entry index — one entry per stored record,
// superseded ones included until the fold drops them — never the record
// set: merging two 10^5-record files does not buffer 2x10^5
// assignment/response maps.
//
// The write is atomic (temp file, fsync, rename) and the whole operation
// is idempotent: merging a merged journal reproduces it byte for byte,
// and Compact on a merged journal finds nothing to rewrite (a merge
// output already holds exactly one canonical record per key).
//
// Sources and destination may also be registered-format archives
// (internal/runstore/archivestore): sources are dispatched by content
// sniffing, the destination by file extension, so journal→archive and
// archive→journal conversions are merges like any other.
func Merge(srcs []string, dst string) (MergeStats, error) {
	return MergeChecked(srcs, dst, false)
}

// MergeChecked is Merge with an optional conflict gate: with
// failOnConflict set, cross-source conflicts detected in the index pass
// abort the merge before anything is written — the strict-conversion
// path, which must not mask a divergent measurement inside a long-lived
// artifact. The returned stats still carry the conflicts.
func MergeChecked(srcs []string, dst string, failOnConflict bool) (MergeStats, error) {
	if dst == "" {
		return MergeStats{}, fmt.Errorf("runstore: merge needs a destination path")
	}
	plan, ms, err := planMerge(srcs)
	if err != nil {
		return ms, err
	}
	defer plan.Close()
	if failOnConflict && len(ms.Conflicts) > 0 {
		return ms, fmt.Errorf("runstore: %d conflicting record(s) across sources; %s not written", len(ms.Conflicts), dst)
	}
	if err := plan.write(dst, formatForDst(dst), srcs[0]); err != nil {
		return ms, err
	}
	metMergeRecords.Add(int64(ms.Kept))
	return ms, nil
}

// MergeScan streams the canonical merged view of srcs — the exact
// record sequence Merge would write — without writing anything: the
// same index pass, last-wins resolution, and k-way ordered iteration,
// decoding one record at a time. Converters use it to verify a written
// artifact against the merge that produced it without materializing
// either side. Errors surface in the sequence and stop it.
func MergeScan(srcs []string) iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		plan, _, err := planMerge(srcs)
		if err != nil {
			yield(Record{}, err)
			return
		}
		defer plan.Close()
		for rec, err := range plan.records() {
			if !yield(rec, err) {
				return
			}
			if err != nil {
				return
			}
		}
	}
}

// mergeSource is one open merge input: its reader plus the canonically
// sorted entries of the records it contributes to the output.
type mergeSource struct {
	r       SourceReader
	fs      *fileSource // r when it is a journal file: the source frames can be copied from
	winners []SourceEntry
}

// newMergeSource wraps an open reader.
func newMergeSource(r SourceReader) *mergeSource {
	fs, _ := r.(*fileSource)
	return &mergeSource{r: r, fs: fs}
}

// copies reports whether winner e reaches a file written by codec c
// (nil: some other format) as a copy of its stored frame.
func (s *mergeSource) copies(e SourceEntry, c *codec) bool {
	return e.canonical && s.fs != nil && s.fs.c == c
}

// fetch reads winner e for a file written by codec c: its stored frame
// if that is copied, the decoded record otherwise. ahead is fileSource.raw's.
func (s *mergeSource) fetch(e SourceEntry, c *codec, ahead bool) (frame, error) {
	if s.fs == nil {
		rec, err := s.r.Read(e.Ext)
		return frame{rec: rec}, err
	}
	raw, err := s.fs.raw(e.Ext, ahead)
	if err != nil || s.copies(e, c) {
		return frame{raw: raw}, err
	}
	rec, err := s.fs.decodeRaw(raw, e.Ext)
	return frame{rec: rec}, err
}

// mergePlan is a prepared rewrite: every source indexed, last-wins
// resolved, per-source winner lists in output order (Merge: canonical;
// Compact: its one source's first-appended order). The readers stay open
// so the write pass can fetch records by extent.
type mergePlan struct {
	sources []*mergeSource
}

// write replaces dst, a file of format f, with the plan's winners: frame
// by frame when f is a journal encoding, through the format's own Write
// otherwise.
func (p *mergePlan) write(dst string, f *Format, modeFrom string) error {
	c := codecOf(f)
	if c == nil {
		return f.Write(dst, p.records(), modeFrom)
	}
	copied, err := c.writeFrames(dst, p.frames(c), modeFrom)
	if err == nil {
		metRewriteCopied.Add(int64(copied))
	}
	return err
}

// Close closes every source reader.
func (p *mergePlan) Close() error {
	var first error
	for _, s := range p.sources {
		if err := s.r.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// entryRef locates one entry of the index pass: the source it was read
// from and its position in that source's read order. Eight bytes, so the
// cross-source index holds no entry of its own (an entry list that
// outgrew int32 would be 200 GB of entries first).
type entryRef struct{ src, pos int32 }

// planMerge runs Merge's index pass: every source's entries read
// (scanSources), last-wins resolved over them (fold), and each source's
// survivors put in canonical order — left as they are when they already
// are in it, as a worker's spool and a merged journal are — ready for
// k-way iteration.
func planMerge(srcs []string) (*mergePlan, MergeStats, error) {
	if len(srcs) == 0 {
		return nil, MergeStats{}, fmt.Errorf("runstore: merge needs at least one source journal")
	}
	plan, err := scanSources(srcs)
	if err != nil {
		return nil, MergeStats{Sources: len(srcs)}, err
	}
	ms := plan.fold(srcs)
	for _, s := range plan.sources {
		if !slices.IsSortedFunc(s.winners, canonicalCompare) {
			slices.SortFunc(s.winners, canonicalCompare)
		}
	}
	return plan, ms, nil
}

// fold resolves last-wins over the entry lists the scan read, named srcs:
// one pass in source order, then file order, through a map from key to
// the entry holding it at that moment, sized from the entry count the
// scan reports. A key met again in the same source is an ordinary
// supersede — the later entry takes the earlier one's slot, so a source's
// survivors keep its keys in first-appended order, the order Compact and
// ScanFile serve. Met in a later source, the key's holder is marked dead
// where it lies, and a measurement that disagrees with the holder's is a
// Conflict: only cross-source disagreement means two workers measured the
// same unit differently. The dead are then dropped from every list.
func (p *mergePlan) fold(srcs []string) MergeStats {
	ms := MergeStats{Sources: len(srcs)}
	total := 0
	for _, s := range p.sources {
		total += len(s.winners)
		if s.r.Info().Torn {
			ms.TornSources++
		}
	}
	index := make(map[string]entryRef, total)
	dead := make([][]bool, len(p.sources)) // per source, allocated at its first superseded entry
	kill := func(at entryRef) {
		if dead[at.src] == nil {
			dead[at.src] = make([]bool, len(p.sources[at.src].winners))
		}
		dead[at.src][at.pos] = true
	}
	for i, s := range p.sources {
		for pos := range s.winners {
			e := &s.winners[pos]
			k := e.Key()
			here := entryRef{src: int32(i), pos: int32(pos)}
			prev, seen := index[k]
			switch {
			case !seen:
				index[k] = here
			case prev.src == here.src:
				s.winners[prev.pos] = *e
				kill(here)
			default:
				if p.sources[prev.src].winners[prev.pos].Fp != e.Fp {
					ms.Conflicts = append(ms.Conflicts, Conflict{Key: k, Earlier: srcs[prev.src], Later: srcs[i]})
				}
				kill(prev)
				index[k] = here
			}
		}
	}
	for i, s := range p.sources {
		if dead[i] == nil {
			continue
		}
		read := s.winners
		s.winners = s.winners[:0]
		for pos, e := range read {
			if !dead[i][pos] {
				s.winners = append(s.winners, e)
			}
		}
		clear(read[len(s.winners):])
	}
	ms.Kept = len(index)
	ms.Superseded = total - len(index)
	return ms
}

// scanSources opens every source, in order, and reads the entries of
// those it could open (scan). An open failure ends the list there, and is
// the error returned unless a source before it failed first; either way
// every reader that was opened is closed.
func scanSources(srcs []string) (*mergePlan, error) {
	plan := &mergePlan{sources: make([]*mergeSource, 0, len(srcs))}
	var openErr error
	for _, path := range srcs {
		r, err := OpenSource(path)
		if err != nil {
			openErr = err
			break
		}
		plan.sources = append(plan.sources, newMergeSource(r))
	}
	if err := cmp.Or(plan.scan(runtime.GOMAXPROCS(0)), openErr); err != nil {
		plan.Close()
		return nil, err
	}
	return plan, nil
}

// sectionFloor is the least a section holds when the index pass cuts a
// line-framed journal of its own for another core to read: below it a
// section's hand-off and its reader cost more than the lines it scans.
// On BenchmarkCollect at -cpu 2 (two 200 KiB shard journals merged, the
// 400 KiB result compacted) floors of 16 and 64 KiB measured alike
// (6.6–8.5 ms), 256 KiB, which reads each shard in one section, 8.1–10.3
// ms; of the two equal ones the larger keeps small files whole. A var,
// not a const, so tests can cut small files into many sections.
var sectionFloor int64 = 64 << 10

// scan is the index pass's read half: it collects every source's entries,
// in file order, into its winners list. It runs on up to GOMAXPROCS
// goroutines, the caller's among them (one unit: only the caller's),
// which claim units in order: a journal in line framing is cut into up to
// sections sections (fileSource.sections), each read by the one serial
// scan from its own offset; any other source is one unit, read through
// Entries. A failure stops further claims, so every unit before the
// lowest-numbered failing one has been read in full, and its failure —
// the first by source, then by offset — is the one a one-at-a-time pass
// would have met. Each source's section lists and what its sections
// found are then joined in file order.
func (p *mergePlan) scan(sections int) error {
	type unit struct{ src, sec int }
	var units []unit
	bounds := make([][]int64, len(p.sources)) // nil: read through Entries
	lists := make([][][]SourceEntry, len(p.sources))
	found := make([][]scanned, len(p.sources))
	for i, s := range p.sources {
		n := 1
		if s.fs != nil {
			bounds[i] = s.fs.sections(sections)
			n = len(bounds[i]) - 1
		}
		lists[i], found[i] = make([][]SourceEntry, n), make([]scanned, n)
		for sec := range n {
			units = append(units, unit{i, sec})
		}
	}
	errs := make([]error, len(units))
	var next atomic.Int64
	var failed atomic.Bool
	read := func() {
		for !failed.Load() {
			u := int(next.Add(1)) - 1
			if u >= len(units) {
				return
			}
			i, sec := units[u].src, units[u].sec
			if b := bounds[i]; b != nil {
				end := int64(math.MaxInt64) // the last section reads on to the file's end, as one pass would
				if sec+2 < len(b) {
					end = b[sec+1]
				}
				lists[i][sec], found[i][sec], errs[u] = p.sources[i].fs.entries(b[sec], end)
			} else {
				lists[i][sec], errs[u] = collectEntries(p.sources[i].r)
			}
			if errs[u] != nil {
				failed.Store(true)
			}
		}
	}
	var wg sync.WaitGroup
	for w := min(runtime.GOMAXPROCS(0), len(units)); w > 1; w-- {
		wg.Add(1)
		go func() {
			defer wg.Done()
			read()
		}()
	}
	read()
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			return err
		}
	}
	for i, s := range p.sources {
		if len(lists[i]) == 1 {
			s.winners = lists[i][0]
		} else {
			s.winners = slices.Concat(lists[i]...)
		}
		if bounds[i] != nil {
			s.fs.finish(found[i]...)
		}
	}
	return nil
}

// collectEntries reads all of r's entries.
func collectEntries(r SourceReader) ([]SourceEntry, error) {
	var list []SourceEntry
	for e, err := range r.Entries() {
		if err != nil {
			return nil, err
		}
		list = append(list, e)
	}
	return list, nil
}

// canonicalCompare orders entries by (experiment, design row, replicate,
// hash) — the order a single sequential run appends in, so merged
// multi-writer journals and single-writer journals compare byte-for-byte
// after canonicalization. After last-wins resolution no two winners
// share all four fields, so the order is total.
func canonicalCompare(a, b SourceEntry) int {
	if c := strings.Compare(a.Experiment(), b.Experiment()); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Row, b.Row); c != 0 {
		return c
	}
	if c := cmp.Compare(a.Replicate, b.Replicate); c != 0 {
		return c
	}
	return strings.Compare(a.Hash(), b.Hash())
}

// each iterates the plan's winners in canonical output order by k-way
// ordered iteration over the per-source sorted winner lists: the source
// whose head entry is canonically smallest yields next. Only cursor
// state lives in memory; records are fetched by the caller one extent at
// a time.
func (p *mergePlan) each(fn func(s *mergeSource, e SourceEntry) error) error {
	cursors := make([]int, len(p.sources))
	for {
		best := -1
		for i, s := range p.sources {
			if cursors[i] >= len(s.winners) {
				continue
			}
			if best < 0 || canonicalCompare(s.winners[cursors[i]], p.sources[best].winners[cursors[best]]) < 0 {
				best = i
			}
		}
		if best < 0 {
			return nil
		}
		s := p.sources[best]
		if err := fn(s, s.winners[cursors[best]]); err != nil {
			return err
		}
		cursors[best]++
	}
}

// parallelMergeThreshold is the count of winners to decode below which
// frames() stays serial: a handful of records never amortizes the pool
// setup, and small merges dominate the test suite. A var, not a const,
// so tests can force the parallel path on small inputs.
var parallelMergeThreshold = 4096

// frames is the plan's output for a file written by codec c (nil: some
// other format, every frame a record): the k-way iteration, each winner
// fetched as the frame to write. The cursor merge itself is inherently
// serial (it is what defines the output order), and so is copying —
// winners come through each source's read-ahead window. But a record
// decode — a positioned read plus a JSON or binary parse — is not, so a
// rewrite with many winners to decode runs the fetches on an ordered
// worker pool and the consumer drains results in submission order.
// Output order, and therefore output bytes, are identical on both paths.
func (p *mergePlan) frames(c *codec) iter.Seq2[frame, error] {
	workers := runtime.GOMAXPROCS(0)
	if workers > 8 {
		workers = 8 // decode parallelism saturates well before the I/O does
	}
	decodes := 0
	for _, s := range p.sources {
		for _, e := range s.winners {
			if !s.copies(e, c) {
				decodes++
			}
		}
	}
	if workers < 2 || decodes < parallelMergeThreshold {
		return p.framesSerial(c)
	}
	return p.framesParallel(c, workers)
}

// records is the plan's output as decoded records — what a format other
// than the journals' is written from, and what MergeScan serves.
func (p *mergePlan) records() iter.Seq2[Record, error] {
	return func(yield func(Record, error) bool) {
		for f, err := range p.frames(nil) {
			if !yield(f.rec, err) {
				return
			}
		}
	}
}

// errStop ends a callback-driven pass (mergePlan.each, a framelog scan)
// whose consumer stopped ranging. It never escapes the iterator that
// returns it.
var errStop = errors.New("runstore: iteration stopped")

// framesSerial fetches one winner per step on the caller's goroutine.
func (p *mergePlan) framesSerial(c *codec) iter.Seq2[frame, error] {
	return func(yield func(frame, error) bool) {
		err := p.each(func(s *mergeSource, e SourceEntry) error {
			f, ferr := s.fetch(e, c, true)
			if ferr != nil {
				return ferr
			}
			if !yield(f, nil) {
				return errStop
			}
			return nil
		})
		if err != nil && err != errStop {
			yield(frame{}, err)
		}
	}
}

// fetchJob is one winner's fetch in flight on the merge worker pool.
// out is buffered, so a worker never blocks delivering its result and
// the pool drains cleanly however the consumer exits.
type fetchJob struct {
	s   *mergeSource
	e   SourceEntry
	out chan fetchResult
}

type fetchResult struct {
	f   frame
	err error
}

// framesParallel is frames() over a fetch pool: a feeder walks the
// k-way cursor merge in output order, handing each winner to the
// workers and — through a second channel carrying the same jobs in
// submission order — to the consumer, which blocks on each job's own
// result slot. Fetches overlap; delivery order does not change.
//
// Early exit (the consumer stops yielding, or a fetch fails) closes
// done; the feeder sees it at its next send, closes the job channels,
// and the deferred Wait holds the iterator until every worker has
// retired — no goroutine outlives the range loop, which is what keeps
// plan.Close safe to run right after it.
func (p *mergePlan) framesParallel(c *codec, workers int) iter.Seq2[frame, error] {
	return func(yield func(frame, error) bool) {
		jobs := make(chan *fetchJob, workers)
		order := make(chan *fetchJob, 2*workers)
		done := make(chan struct{})
		var wg sync.WaitGroup
		defer wg.Wait()
		defer close(done)
		for i := 0; i < workers; i++ {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for j := range jobs {
					f, err := j.s.fetch(j.e, c, false)
					j.out <- fetchResult{f: f, err: err}
				}
			}()
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			defer close(jobs)
			defer close(order)
			p.each(func(s *mergeSource, e SourceEntry) error {
				j := &fetchJob{s: s, e: e, out: make(chan fetchResult, 1)}
				select {
				case order <- j:
				case <-done:
					return errStop
				}
				select {
				case jobs <- j:
				case <-done:
					return errStop
				}
				return nil
			})
		}()
		for j := range order {
			res := <-j.out
			if res.err != nil {
				yield(frame{}, res.err)
				return
			}
			if !yield(res.f, nil) {
				return
			}
		}
	}
}
