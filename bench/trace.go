package main

import (
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
)

// span is one timed call into a layer's public surface, recorded from
// outside the layer. Parent is the span that caused it (0 for a
// repetition's root); ids are unique within one repetition.
type span struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	ID       int32  `json:"id"`
	Parent   int32  `json:"parent"`
	Name     string `json:"name"`
	StartNS  int64  `json:"start_ns"` // since the benchmark process started
	EndNS    int64  `json:"end_ns"`
}

func (s span) dur() time.Duration { return time.Duration(s.EndNS - s.StartNS) }

// layer is the module a span belongs to: the name up to the first dot.
func (s span) layer() string {
	layer, _, _ := strings.Cut(s.Name, ".")
	return layer
}

// processStart anchors span timestamps, so spans of different
// repetitions share one clock in trace.json.
var processStart = time.Now()

// tracer collects the spans of one traced repetition in memory. A nil
// *tracer is the untraced case: begin returns 0 and end does nothing, so
// instruments call both unconditionally.
type tracer struct {
	workload string
	rep      int
	mu       sync.Mutex
	spans    []span
}

func (t *tracer) begin(name string, parent int32) int32 {
	if t == nil {
		return 0
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	id := int32(len(t.spans) + 1)
	t.spans = append(t.spans, span{Workload: t.workload, Rep: t.rep, ID: id, Parent: parent, Name: name, StartNS: now})
	return id
}

func (t *tracer) end(id int32) {
	if t == nil || id == 0 {
		return
	}
	now := time.Since(processStart).Nanoseconds()
	t.mu.Lock()
	t.spans[id-1].EndNS = now
	t.mu.Unlock()
}

// meter is what one repetition's instruments write into: the spans of a
// traced repetition, and — traced or not — the latencies of the
// workload's closed-loop operation, which are end-to-end metrics.
type meter struct {
	tr  *tracer
	mu  sync.Mutex
	ops []float64 // milliseconds
	// ticks counts durable records, last is when the operation in
	// progress began; see tick.
	ticks int
	last  time.Time

	// The timed section, between begin and finish.
	root        int32
	start       time.Time
	storeBefore map[string]float64
	procBefore  processMeter

	// Traced repetitions only: what the per-layer metrics are computed from.
	store   map[string]float64 // obs.Default() deltas over the timed section (runstore_*)
	process processMeter       // process cost of the timed section
	product map[string]float64 // the repetition's private collector and client registries
	extra   map[string]float64 // values only the workload knows (scheduler stats, index size)
}

func newMeter(tr *tracer) *meter {
	return &meter{tr: tr, product: map[string]float64{}, extra: map[string]float64{}}
}

// op records one closed-loop operation's latency.
func (m *meter) op(d time.Duration) {
	m.mu.Lock()
	m.ops = append(m.ops, float64(d)/float64(time.Millisecond))
	m.mu.Unlock()
}

// tick records that one more record just became durable; every
// unitReps-th one closes an operation: the interval in which one cell's
// worth of replicates completed, whichever caller completed them. With
// two scheduler workers queueing on one journal, what a single Append
// call waits depends on which worker the mutex hands over to, and its
// median flips between "found the journal free" and "waited a turn"; the
// completion interval is what the user watching progress sees, and has
// one mode. A cell's worth, not a single record: one fsync lasts ≈0.13 ms,
// so any stall of the shared disk multiplies a single interval, and the
// tail of single intervals measures the sandbox, not the journal.
func (m *meter) tick() {
	now := time.Now()
	m.mu.Lock()
	if m.ticks%unitReps == 0 {
		if !m.last.IsZero() {
			m.ops = append(m.ops, float64(now.Sub(m.last))/float64(time.Millisecond))
		}
		m.last = now
	}
	m.ticks++
	m.mu.Unlock()
}

// timed runs fn as a span under parent and returns its duration.
func (m *meter) timed(name string, parent int32, fn func() error) (time.Duration, error) {
	id := m.tr.begin(name, parent)
	start := time.Now()
	err := fn()
	d := time.Since(start)
	m.tr.end(id)
	return d, err
}

// begin opens the repetition's timed section — the one records_per_s
// divides by — and returns its root span. Traced repetitions also
// snapshot the process and the runstore instruments in obs.Default().
func (m *meter) begin() int32 {
	settle()
	if m.tr != nil {
		m.storeBefore = counters(obs.Default())
		m.procBefore = readProcess()
	}
	m.root = m.tr.begin(rootSpan, 0)
	m.start = time.Now()
	return m.root
}

// settle collects garbage so that what is timed next starts from the
// heap a fresh process would have, as testing.B does before a benchmark:
// otherwise a cycle that marks the previous phase's garbage and the
// benchmark's own fixtures lands in some measurements and not in others.
func settle() { runtime.GC() }

// finish closes the timed section and returns its wall time.
func (m *meter) finish() time.Duration {
	wall := time.Since(m.start)
	m.tr.end(m.root)
	if m.tr != nil {
		after := readProcess()
		m.process = processMeter{
			cpu:    after.cpu - m.procBefore.cpu,
			allocs: after.allocs - m.procBefore.allocs,
			gcs:    after.gcs - m.procBefore.gcs,
		}
		m.store = delta(m.storeBefore, counters(obs.Default()))
	}
	return wall
}

// set records a per-layer value only the workload knows.
func (m *meter) set(name string, v float64) { m.extra[name] = v }

// readProduct folds the repetition's private registries (collector,
// client) into the account.
func (m *meter) readProduct(regs ...*obs.Registry) {
	for _, reg := range regs {
		for name, v := range counters(reg) {
			m.product[name] += v
		}
	}
}

// profile is the per-name account of one repetition's spans.
type profile struct {
	busy  map[string]float64   // Σ span duration, seconds
	self  map[string]float64   // Σ span duration minus what its children cover, seconds
	count map[string]float64   // spans
	durs  map[string][]float64 // every span's duration, seconds
}

// summarize computes busy, self and count per span name. A span's self
// time is its duration minus the part of its interval its direct
// children cover — the union of their intervals, so two children running
// in parallel under one parent are not subtracted twice.
func summarize(spans []span) profile {
	p := profile{
		busy:  map[string]float64{},
		self:  map[string]float64{},
		count: map[string]float64{},
		durs:  map[string][]float64{},
	}
	children := map[int32][]span{}
	for _, s := range spans {
		children[s.Parent] = append(children[s.Parent], s)
	}
	for _, s := range spans {
		d := s.dur().Seconds()
		p.busy[s.Name] += d
		p.count[s.Name]++
		p.durs[s.Name] = append(p.durs[s.Name], d)
		p.self[s.Name] += d - covered(s, children[s.ID])
	}
	return p
}

// covered returns how many seconds of parent's interval its children
// cover.
func covered(parent span, kids []span) float64 {
	if len(kids) == 0 {
		return 0
	}
	sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
	var total int64
	end := parent.StartNS
	for _, k := range kids {
		lo, hi := max(k.StartNS, end), min(k.EndNS, parent.EndNS)
		if hi > lo {
			total += hi - lo
			end = hi
		}
	}
	return float64(total) / 1e9
}

// subtree returns root and every span below it. A child always begins
// after its parent, so ids ascend along every path and one pass suffices.
func subtree(spans []span, root int32) []span {
	in := map[int32]bool{root: true}
	var out []span
	for _, s := range spans {
		if in[s.ID] || in[s.Parent] {
			in[s.ID] = true
			out = append(out, s)
		}
	}
	return out
}
