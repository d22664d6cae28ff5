package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"fmt"
	"math/rand/v2"
	"net"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/archivestore"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
	"repro/internal/stats"
	"repro/internal/warehouse"
)

// run holds what one benchmark invocation fixes for every repetition.
type run struct {
	ctx     context.Context
	seed    uint64
	scale   float64
	callers int // concurrent closed-loop callers: min(2, nproc)
}

// sample is what one repetition measured.
type sample struct {
	records int           // records carried through the timed section
	wall    time.Duration // the timed section: records_per_s = records ÷ wall
	resume  time.Duration // reopen the finished artifact and recover every record
	bytes   int64         // size of the final artifact
	stored  int           // distinct records the artifact holds
	checks

	// Filled in by the run loop, not the workload.
	latencies []float64 // the closed-loop operation's latencies, milliseconds
	steal     float64   // share of processor time the hypervisor withheld meanwhile
	speed     float64   // the machine's speed meanwhile, as a share of the reference machine's
}

// checks counts operations and correctness checks; a failed one is kept
// by name so the run can say what broke.
type checks struct {
	attempted int
	failed    int
	failures  []string
}

// ops counts n product operations that returned without error (an
// operation that errors aborts the repetition instead).
func (c *checks) ops(n int) { c.attempted += n }

// ok records one correctness check.
func (c *checks) ok(cond bool, format string, args ...any) {
	c.attempted++
	if !cond {
		c.failed++
		c.failures = append(c.failures, fmt.Sprintf(format, args...))
	}
}

// repFunc runs one repetition in a fresh directory.
type repFunc func(dir string, m *meter) (sample, error)

// workload is one closed-loop scenario along a record's journey.
type workload struct {
	name string
	why  string
	// gated workloads are the ones BENCHMARK.json lists: the driver runs
	// them and holds later changes to their bounds. The others are run by
	// hand; README.md, "Workloads", says why they are not gated.
	gated bool
	// callers is how many concurrent callers the scenario has at most;
	// the run uses min(callers, nproc).
	callers int
	// setup builds the fixtures under dir from the seed and returns the
	// repetition function that uses them.
	setup func(r *run, dir string) (repFunc, error)
}

// The names are fixed: later issues quote them.
var workloads = []workload{
	{name: "local-run", gated: true, callers: 2, setup: setupLocalRun,
		why: "default user path: sched into a JSONL journal, one fsync per append; no collector, no warehouse, so a batch-append Store shows here and nowhere else"},
	{name: "fleet-collect", gated: true, callers: 2, setup: setupFleetCollect,
		why: "full distributed journey: two client.Workers spool, stream to the daemon, then merge and compact; spool fsync dominates and the daemon idles"},
	{name: "ingest-burst", callers: 2, setup: setupIngestBurst,
		why: "two clients stream pre-built records past the spool in binary 256-record batches, so daemon decode and group commit dominate; must not move local-run"},
	{name: "finish-pipeline", callers: 1, setup: setupFinishPipeline,
		why: "CPU-bound codec path with no per-record fsync: merge, compact, archive and read-back of the stores the write workloads produce"},
	{name: "warehouse-query", gated: true, callers: 1, setup: setupWarehouseQuery,
		why: "accumulated-runs read path over every at-rest format: cold and incremental refresh, then a history-heavy query mix whose tail is regressions"},
}

// Sizes at scale 1. They are a fifth of the issue's sizing-run shapes:
// the builder contract measures many short runs, so a repetition lasts
// about half a second, a run holds dozens of them, and the probe that
// runs between them sits close to what it corrects.
const (
	unitCells    = 300  // local-run, fleet-collect: × unitReps = 3 000 units
	unitReps     = 10   //
	burstCells   = 400  // ingest-burst: × burstReps = 40 000 records
	burstReps    = 100  //
	burstBatch   = 256  // records per Ingest call
	finishCells  = 1000 // finish-pipeline: × unitReps = 10 000 distinct records, +10 % superseded
	finishShards = 4    //
	finishReads  = 50   // seeded cold point reads from the finished archive
	whRuns       = 20   // warehouse-query: finished runs present at the cold refresh
	whNewRuns    = 5    // runs that land one at a time afterwards
	whCells      = 100  // × unitReps = 1 000 records per run
	whQueries    = 400  // queries per repetition
)

// xorFingerprints folds records into an order-independent digest.
func xorFingerprints(recs []runstore.Record) uint64 {
	var x uint64
	for _, rec := range recs {
		x ^= runstore.Fingerprint(rec)
	}
	return x
}

// sequentialSum is the SHA-256 of the journal one sequential process
// would have written for recs (given in canonical row, replicate order).
// The byte-identity contract: any fleet, any wire, any shard count merges
// to exactly these bytes.
func sequentialSum(recs []runstore.Record) ([sha256.Size]byte, error) {
	var ref bytes.Buffer
	for _, rec := range recs {
		if err := runstore.EncodeWire(&ref, rec); err != nil {
			return [sha256.Size]byte{}, err
		}
	}
	return sha256.Sum256(ref.Bytes()), nil
}

// fileSize is the size of path, 0 if it cannot be read (the caller's
// correctness checks then fail on the count).
func fileSize(path string) int64 {
	st, err := os.Stat(path)
	if err != nil {
		return 0
	}
	return st.Size()
}

// replay is the resume measurement of every workload whose artifact is a
// store of the synthetic experiment: a fresh scheduler opens the finished
// store and must replay every unit, executing none — what a user pays
// after a crash, or to render the artifact of a collected run.
func (r *run) replay(m *meter, cells, reps int, openSpan string, open func() (runstore.Store, error), c *checks) (time.Duration, error) {
	exp, err := experiment(r.seed, cells, reps, nil)
	if err != nil {
		return 0, err
	}
	settle()
	root := m.tr.begin("bench.resume", 0)
	start := time.Now()
	var store runstore.Store
	if _, err := m.timed(openSpan, root, func() (err error) { store, err = open(); return }); err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	id := m.tr.begin("sched.replay", root)
	s := sched.New(sched.Options{
		Workers: r.callers,
		Store:   &timedStore{inner: store, m: m, parent: id},
		Metrics: obs.NewRegistry(),
	})
	_, err = s.Execute(r.ctx, exp)
	m.tr.end(id)
	if cerr := store.Close(); err == nil {
		err = cerr
	}
	d := time.Since(start)
	m.tr.end(root)
	if err != nil {
		return 0, fmt.Errorf("resume: %w", err)
	}
	st := s.LastStats()
	c.ops(cells * reps)
	c.ok(st.Executed == 0 && st.Replayed == cells*reps,
		"resume executed %d and replayed %d unit(s), want 0 and %d", st.Executed, st.Replayed, cells*reps)
	m.set("sched.units_replayed", float64(st.Replayed))
	return d, nil
}

// ---------------------------------------------------------------- local-run

func setupLocalRun(r *run, dir string) (repFunc, error) {
	cells := scaled(unitCells, r.scale, 4)
	units := cells * unitReps
	want, err := records(r.seed, 0, cells, unitReps, 0)
	if err != nil {
		return nil, err
	}
	wantXor := xorFingerprints(want)

	return func(dir string, m *meter) (sample, error) {
		var s sample
		path := filepath.Join(dir, runstore.SanitizeName(expName)+".jsonl")

		root := m.begin()
		var j *runstore.Journal
		if _, err := m.timed("runstore.open", root, func() (err error) { j, err = runstore.OpenDir(dir, expName); return }); err != nil {
			return s, err
		}
		exec := m.tr.begin("sched.execute", root)
		exp, err := experiment(r.seed, cells, unitReps, tracedRunner(m, exec))
		if err != nil {
			return s, err
		}
		sc := sched.New(sched.Options{
			Workers: r.callers,
			Store:   &timedStore{inner: j, m: m, parent: exec},
			Metrics: obs.NewRegistry(),
		})
		_, err = sc.Execute(r.ctx, exp)
		m.tr.end(exec)
		if cerr := j.Close(); err == nil {
			err = cerr
		}
		s.wall = m.finish()
		if err != nil {
			return s, err
		}
		st := sc.LastStats()
		s.records = units
		s.ops(units)
		s.ok(st.Executed == units && st.Replayed == 0, "run executed %d and replayed %d unit(s), want %d and 0", st.Executed, st.Replayed, units)
		m.set("sched.units_executed", float64(st.Executed))

		s.resume, err = r.replay(m, cells, unitReps, "runstore.open",
			func() (runstore.Store, error) { return runstore.Open(path) }, &s.checks)
		if err != nil {
			return s, err
		}

		info, err := runstore.Inspect(path)
		if err != nil {
			return s, err
		}
		got, err := runstore.LoadRecords(path)
		if err != nil {
			return s, err
		}
		s.ok(info.Records == units && info.Distinct == units && !info.Torn,
			"journal holds %d record(s), %d distinct, torn=%v; want %d, %d, false", info.Records, info.Distinct, info.Torn, units, units)
		s.ok(len(got) == units && xorFingerprints(got) == wantXor, "journal contents differ from the generated inputs")
		s.bytes, s.stored = fileSize(path), info.Distinct
		return s, nil
	}, nil
}

// ------------------------------------------------------------ the daemon

// daemon is an in-process collector.Server behind net/http on loopback,
// with the client-side transport every caller of one repetition shares.
type daemon struct {
	dir       string
	shards    int
	srv       *collector.Server
	reg       *obs.Registry
	hs        *http.Server
	served    chan struct{}
	url       string
	transport *http.Transport
	refused   atomic.Int64 // 429 and 5xx answers the clients saw
	hc        *http.Client
}

func startDaemon(dir string, shards int, m *meter) (*daemon, error) {
	d := &daemon{dir: dir, shards: shards, reg: obs.NewRegistry(), served: make(chan struct{})}
	srv, err := collector.New(collector.Config{Dir: dir, Shards: shards, Metrics: d.reg})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Close()
		return nil, err
	}
	d.srv = srv
	d.hs = &http.Server{Handler: tracedHandler(m, srv)}
	go func() {
		d.hs.Serve(ln) // returns once stop closes the server
		close(d.served)
	}()
	d.url = "http://" + ln.Addr().String()
	d.transport = &http.Transport{}
	d.hc = &http.Client{Transport: &timedTransport{inner: d.transport, m: m, refused: &d.refused}}
	return d, nil
}

// stop closes client connections, the HTTP server and the collector, and
// waits for the serving goroutine.
func (d *daemon) stop() error {
	d.transport.CloseIdleConnections()
	d.hs.Close()
	<-d.served
	return d.srv.Close()
}

// merge folds the daemon's shard stores into the canonical file.
func (d *daemon) merge(m *meter, parent int32, dst string) (runstore.MergeStats, error) {
	var ms runstore.MergeStats
	_, err := m.timed("runstore.merge", parent, func() (err error) {
		ms, err = runstore.Merge(shardstore.Paths(d.dir, expName, d.shards), dst)
		return
	})
	return ms, err
}

// checkCanonical holds a collected run's canonical file to the
// byte-identity contract and records it as the sample's artifact.
func (s *sample) checkCanonical(path string, ms runstore.MergeStats, units int, wantSum [sha256.Size]byte) error {
	data, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	s.ok(ms.Kept == units && ms.Superseded == 0 && len(ms.Conflicts) == 0,
		"merge kept %d, superseded %d, %d conflict(s); want %d, 0, 0", ms.Kept, ms.Superseded, len(ms.Conflicts), units)
	s.ok(sha256.Sum256(data) == wantSum, "canonical file differs from the sequential single-process journal")
	s.bytes, s.stored = int64(len(data)), ms.Kept
	return nil
}

// clean checks that no request was refused or retried: the workloads are
// sized so that none is.
func (d *daemon) clean(m *meter, creg *obs.Registry, c *checks) {
	m.readProduct(d.reg, creg)
	cc := counters(creg)
	c.ok(d.refused.Load() == 0 && cc["worker_backpressure_waits_total"] == 0 && cc["worker_transport_retries_total"] == 0,
		"%d request(s) answered 429/5xx, %v backpressure wait(s), %v transport retry(ies)",
		d.refused.Load(), cc["worker_backpressure_waits_total"], cc["worker_transport_retries_total"])
}

// ------------------------------------------------------------ fleet-collect

func setupFleetCollect(r *run, dir string) (repFunc, error) {
	cells := scaled(unitCells, r.scale, 4)
	units := cells * unitReps
	want, err := records(r.seed, 0, cells, unitReps, 0)
	if err != nil {
		return nil, err
	}
	wantSum, err := sequentialSum(want)
	if err != nil {
		return nil, err
	}

	return func(dir string, m *meter) (sample, error) {
		var s sample
		d, err := startDaemon(filepath.Join(dir, "collector"), r.callers, m)
		if err != nil {
			return s, err
		}
		defer d.stop()
		creg := obs.NewRegistry()
		workers := make([]*client.Worker, r.callers)
		for k := range workers {
			workers[k], err = client.NewWorker(client.Options{
				URL:        d.url,
				Worker:     "worker-" + strconv.Itoa(k),
				Workers:    1,
				SpoolDir:   filepath.Join(dir, "spool-"+strconv.Itoa(k)),
				HTTPClient: d.hc,
				Metrics:    creg,
				// Not a product default (1 s): how often an idle worker
				// polls for a free shard is a deployment setting, and at
				// 1 s the poll, not the data path, would set the wall time.
				AcquireWait: 10 * time.Millisecond,
			})
			if err != nil {
				return s, err
			}
		}
		canonDir := filepath.Join(dir, "canonical")
		canon := filepath.Join(canonDir, runstore.SanitizeName(expName)+".jsonl")

		root := m.begin()
		errs := make([]error, len(workers))
		var wg sync.WaitGroup
		for k, w := range workers {
			wg.Add(1)
			go func() {
				defer wg.Done()
				id := m.tr.begin("client.execute", root)
				defer m.tr.end(id)
				exp, err := experiment(r.seed, cells, unitReps, tracedRunner(m, id))
				if err == nil {
					_, err = w.Execute(withSpan(r.ctx, id), exp)
				}
				errs[k] = err
			}()
		}
		wg.Wait()
		for _, err := range errs {
			if err != nil {
				return s, err
			}
		}
		// The closed-loop operation: the workers are done and the user
		// collects the run — merge the shard stores, compact the result.
		collect := time.Now()
		ms, err := d.merge(m, root, canon)
		var cs runstore.CompactStats
		if err == nil {
			_, err = m.timed("runstore.compact", root, func() (err error) { cs, err = runstore.Compact(canon, ""); return })
		}
		m.op(time.Since(collect))
		s.wall = m.finish()
		if err != nil {
			return s, err
		}
		s.records = units
		s.ops(units + 2)
		executed := 0
		for _, w := range workers {
			executed += w.Report().Executed
		}
		m.set("sched.units_executed", float64(executed))
		m.set("runstore.merge_dropped_records", float64(ms.Superseded))
		d.clean(m, creg, &s.checks)
		s.ok(executed == units && cs.Kept == units && cs.Dropped == 0,
			"fleet executed %d unit(s), compact kept %d and dropped %d; want %d, %d, 0", executed, cs.Kept, cs.Dropped, units, units)
		if err := s.checkCanonical(canon, ms, units, wantSum); err != nil {
			return s, err
		}

		s.resume, err = r.replay(m, cells, unitReps, "runstore.open",
			func() (runstore.Store, error) { return runstore.OpenDir(canonDir, expName) }, &s.checks)
		return s, err
	}, nil
}

// ------------------------------------------------------------- ingest-burst

func setupIngestBurst(r *run, dir string) (repFunc, error) {
	cells := scaled(burstCells, r.scale, 4)
	recs, err := records(r.seed, 0, cells, burstReps, 0)
	if err != nil {
		return nil, err
	}
	buckets := make([][]runstore.Record, r.callers)
	for _, rec := range recs {
		k := runstore.ShardIndex(rec.Hash, r.callers)
		buckets[k] = append(buckets[k], rec)
	}
	wantSum, err := sequentialSum(recs)
	if err != nil {
		return nil, err
	}

	return func(dir string, m *meter) (sample, error) {
		var s sample
		srvDir := filepath.Join(dir, "collector")
		d, err := startDaemon(srvDir, r.callers, m)
		if err != nil {
			return s, err
		}
		stopped := false
		defer func() {
			if !stopped {
				d.stop()
			}
		}()
		creg := obs.NewRegistry()

		root := m.begin()
		errs := make([]error, r.callers)
		calls := make([]int, r.callers)
		var wg sync.WaitGroup
		for k := range errs {
			wg.Add(1)
			go func() {
				defer wg.Done()
				calls[k], errs[k] = streamShard(r.ctx, d, creg, m, root, "burst-"+strconv.Itoa(k), buckets)
			}()
		}
		wg.Wait()
		s.wall = m.finish()
		for k, err := range errs {
			if err != nil {
				return s, err
			}
			s.ops(calls[k])
		}
		s.records = len(recs)
		d.clean(m, creg, &s.checks)

		canon := filepath.Join(dir, "canonical.jsonl")
		ms, err := d.merge(m, 0, canon)
		if err != nil {
			return s, err
		}
		s.ops(1)
		if err := s.checkCanonical(canon, ms, len(recs), wantSum); err != nil {
			return s, err
		}

		// Resume: the daemon restarts over its directory — control-state
		// replay plus reopening (and re-indexing) every shard store.
		stopped = true
		if err := d.stop(); err != nil {
			return s, err
		}
		var again *collector.Server
		settle()
		s.resume, err = m.timed("collector.restart", 0, func() (err error) {
			again, err = collector.New(collector.Config{Dir: srvDir, Shards: r.callers, Metrics: obs.NewRegistry()})
			return
		})
		if err != nil {
			return s, err
		}
		defer again.Close()
		// A restarted daemon that resumed its state answers a new acquire
		// with 204: every shard is already complete.
		rec := httptest.NewRecorder()
		again.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, collector.PathAcquire,
			strings.NewReader(`{"worker":"probe","experiment":"`+expName+`"}`)))
		s.ops(1)
		s.ok(rec.Code == http.StatusNoContent, "restarted daemon answered acquire with %d, want 204 (experiment complete)", rec.Code)
		return s, nil
	}, nil
}

// streamShard is one burst client: acquire a shard lease, stream that
// shard's bucket in burstBatch-record Ingest calls, release complete.
// Every Ingest is one closed-loop operation.
func streamShard(ctx context.Context, d *daemon, creg *obs.Registry, m *meter, root int32, name string, buckets [][]runstore.Record) (calls int, err error) {
	c := client.New(d.url, d.hc)
	c.SetMetrics(creg)
	c.SetBinary(true)
	lease := func(fn func(ctx context.Context) error) error {
		id := m.tr.begin("client.lease", root)
		defer m.tr.end(id)
		return fn(withSpan(ctx, id))
	}
	var grant *collector.AcquireResponse
	if err := lease(func(ctx context.Context) (err error) { grant, err = c.Acquire(ctx, name, expName); return }); err != nil {
		return 0, err
	}
	calls++
	for recs := buckets[grant.Shard]; len(recs) > 0; {
		n := min(burstBatch, len(recs))
		id := m.tr.begin("client.ingest", root)
		start := time.Now()
		err := c.Ingest(withSpan(ctx, id), grant.Lease, recs[:n])
		m.op(time.Since(start))
		m.tr.end(id)
		if err != nil {
			return calls, err
		}
		calls++
		recs = recs[n:]
	}
	err = lease(func(ctx context.Context) error { return c.Release(ctx, grant.Lease, true) })
	return calls + 1, err
}

// ---------------------------------------------------------- finish-pipeline

func setupFinishPipeline(r *run, dir string) (repFunc, error) {
	cells := scaled(finishCells, r.scale, 8)
	recs, err := records(r.seed, 0, cells, unitReps, 0)
	if err != nil {
		return nil, err
	}
	// Every tenth record was appended once before with another value, as
	// a re-run or a retried upload leaves it: the stale version precedes
	// the winner in the same shard file, so merge must drop exactly those.
	shards := make([][]runstore.Record, finishShards)
	stale := 0
	for i, rec := range recs {
		k := runstore.ShardIndex(rec.Hash, finishShards)
		if i%10 == 0 {
			old, err := runstore.NormalizeAppend(record(r.seed, 1, rec.Row, rec.Replicate, 0))
			if err != nil {
				return nil, err
			}
			shards[k] = append(shards[k], old)
			stale++
		}
		shards[k] = append(shards[k], rec)
	}
	srcs := shardstore.Paths(dir, expName, finishShards)
	for k, path := range srcs {
		if err := writeJournal(path, shards[k]); err != nil {
			return nil, err
		}
	}
	// The repetitions keep the count and the digest, not the records: a
	// live heap of fixtures would be marked by every collection they time.
	distinct, wantXor := len(recs), xorFingerprints(recs)
	reads := make([]runstore.Record, finishReads)
	rng := rand.New(rand.NewPCG(r.seed, 1))
	for i := range reads {
		reads[i] = recs[rng.IntN(len(recs))]
	}

	return func(dir string, m *meter) (sample, error) {
		var s sample
		merged := filepath.Join(dir, "merged.jsonl")
		compacted := filepath.Join(dir, "compacted.jsonl")
		arch := filepath.Join(dir, runstore.SanitizeName(expName)+archivestore.Ext)

		root := m.begin()
		var ms, as runstore.MergeStats
		var cs runstore.CompactStats
		count, xor := 0, uint64(0)
		var err error
		// step times fn as a span of the timed section, unless an earlier
		// step failed.
		step := func(name string, fn func() error) {
			if err == nil {
				_, err = m.timed(name, root, fn)
			}
		}
		step("runstore.merge", func() (err error) { ms, err = runstore.Merge(srcs, merged); return })
		step("runstore.compact", func() (err error) { cs, err = runstore.Compact(merged, compacted); return })
		step("archivestore.convert", func() (err error) { as, err = runstore.Merge([]string{compacted}, arch); return })
		step("archivestore.scan", func() error {
			for rec, err := range runstore.ScanFile(arch) {
				if err != nil {
					return err
				}
				count++
				xor ^= runstore.Fingerprint(rec)
			}
			return nil
		})
		s.wall = m.finish()
		if err != nil {
			return s, err
		}
		s.records = distinct
		s.ops(4)
		m.set("runstore.merge_dropped_records", float64(ms.Superseded))

		a, b, err := readBoth(merged, compacted)
		if err != nil {
			return s, err
		}
		s.ok(ms.Kept == distinct && ms.Superseded == stale && len(ms.Conflicts) == 0,
			"merge kept %d, superseded %d, %d conflict(s); want %d, %d, 0", ms.Kept, ms.Superseded, len(ms.Conflicts), distinct, stale)
		s.ok(cs.Dropped == 0 && bytes.Equal(a, b), "compact output differs from the merge output it compacted")
		s.ok(as.Kept == distinct && count == distinct && xor == wantXor,
			"archive holds %d record(s), read back %d; want %d with the source's fingerprint", as.Kept, count, distinct)
		s.bytes, s.stored = fileSize(arch), count
		m.set("archivestore.bytes_per_record", float64(s.bytes)/float64(distinct))

		// The closed-loop operation: a cold point read — open the finished
		// archive (trailer, footer, index pages), fetch one record, close —
		// which is what `perfeval inspect` or a diff against a baseline pays.
		hits := 0
		for _, want := range reads {
			var got runstore.Record
			var ok bool
			settle() // every read is cold: a fresh process, no cycle in flight
			id := m.tr.begin("archivestore.read", 0)
			start := time.Now()
			var ar *archivestore.Archive
			if _, err := m.timed("archivestore.open", id, func() (err error) { ar, err = archivestore.Open(arch); return }); err != nil {
				return s, err
			}
			m.timed("archivestore.lookup", id, func() error {
				got, ok = ar.Lookup(want.Experiment, want.Hash, want.Replicate)
				return nil
			})
			err := ar.Close()
			m.op(time.Since(start))
			m.tr.end(id)
			if err != nil {
				return s, err
			}
			if ok && runstore.Fingerprint(got) == runstore.Fingerprint(want) {
				hits++
			}
		}
		s.ops(len(reads))
		s.ok(hits == len(reads), "%d of %d archive point read(s) returned the stored record", hits, len(reads))

		s.resume, err = r.replay(m, cells, unitReps, "archivestore.open",
			func() (runstore.Store, error) { return archivestore.Open(arch) }, &s.checks)
		if err != nil || m.tr == nil {
			return s, err
		}

		// Traced repetitions also price the alternatives the timed section
		// does not take: the compressed archive, and a journal scan.
		archz := filepath.Join(dir, runstore.SanitizeName(expName)+archivestore.ExtZ)
		if _, err := m.timed("archivestore.z_convert", 0, func() error { _, err := runstore.Merge([]string{compacted}, archz); return err }); err != nil {
			return s, err
		}
		m.set("archivestore.z_bytes_per_record", float64(fileSize(archz))/float64(distinct))
		_, err = m.timed("runstore.scan", 0, func() error {
			for _, err := range runstore.ScanFile(compacted) {
				if err != nil {
					return err
				}
			}
			return nil
		})
		return s, err
	}, nil
}

func readBoth(a, b string) ([]byte, []byte, error) {
	da, err := os.ReadFile(a)
	if err != nil {
		return nil, nil, err
	}
	db, err := os.ReadFile(b)
	return da, db, err
}

// ---------------------------------------------------------- warehouse-query

// whFormats are the at-rest formats the accumulated runs rotate through.
var whFormats = []string{".jsonl", ".binj", archivestore.Ext, archivestore.ExtZ}

func setupWarehouseQuery(r *run, dir string) (repFunc, error) {
	cells := scaled(whCells, r.scale, 4)
	perRun := cells * unitReps
	tracked := rand.New(rand.NewPCG(r.seed, 2)).IntN(cells)
	var trackedHash string
	// One file per run, oldest first; the last run drifts upward on every
	// tenth cell so the regression listing has something to list.
	files := make([]string, whRuns+whNewRuns)
	wantMean := make([]float64, len(files))
	base := time.Date(2024, 1, 1, 0, 0, 0, 0, time.UTC)
	for run := range files {
		recs, err := records(r.seed, run, cells, unitReps, 0)
		if err != nil {
			return nil, err
		}
		if run == len(files)-1 {
			for i := range recs {
				if recs[i].Row%10 == 0 {
					recs[i].Responses = responses(r.seed, run, recs[i].Row, recs[i].Replicate, 0.2)
				}
			}
		}
		var vals []float64
		for _, rec := range recs {
			if rec.Row == tracked {
				vals = append(vals, rec.Responses["ms"])
				trackedHash = rec.Hash
			}
		}
		wantMean[run] = stats.Mean(vals)

		ext := whFormats[run%len(whFormats)]
		files[run] = filepath.Join(dir, fmt.Sprintf("run-%03d%s", run, ext))
		raw := files[run]
		if ext != ".jsonl" {
			raw = filepath.Join(dir, ".raw.jsonl")
		}
		if err := writeJournal(raw, recs); err != nil {
			return nil, err
		}
		if raw != files[run] {
			if _, err := runstore.Merge([]string{raw}, files[run]); err != nil {
				return nil, err
			}
			if err := os.Remove(raw); err != nil {
				return nil, err
			}
		}
		// Runs are ordered by source modification time; pin it.
		mtime := base.Add(time.Duration(run) * time.Hour)
		if err := os.Chtimes(files[run], mtime, mtime); err != nil {
			return nil, err
		}
	}

	// The query mix: 60 % history on a seeded random cell, 20 % trends,
	// 10 % runs, 10 % regressions. The median sits inside history, the
	// tail inside regressions.
	reqs := make([]warehouse.Request, whQueries)
	rng := rand.New(rand.NewPCG(r.seed, 3))
	for i := range reqs {
		switch p := rng.IntN(10); {
		case p < 6:
			reqs[i] = warehouse.Request{Kind: warehouse.KindHistory, Experiment: expName, Response: "ms",
				Cell: "cell=" + cellLevel(rng.IntN(cells))}
		case p < 8:
			reqs[i] = warehouse.Request{Kind: warehouse.KindTrends}
		case p < 9:
			reqs[i] = warehouse.Request{Kind: warehouse.KindRuns}
		default:
			reqs[i] = warehouse.Request{Kind: warehouse.KindRegressions}
		}
	}

	return func(dir string, m *meter) (sample, error) {
		var s sample
		land := func(path string) error { return os.Link(path, filepath.Join(dir, filepath.Base(path))) }
		for _, path := range files[:whRuns] {
			if err := land(path); err != nil {
				return s, err
			}
		}

		root := m.begin()
		var w *warehouse.Warehouse
		var cold warehouse.RefreshStats
		_, err := m.timed("warehouse.open", root, func() (err error) {
			w, err = warehouse.Open(dir, warehouse.Options{Metrics: obs.NewRegistry()})
			return
		})
		if err == nil {
			_, err = m.timed("warehouse.cold_refresh", root, func() (err error) { cold, err = w.Refresh(); return })
		}
		s.wall = m.finish()
		if err != nil {
			return s, err
		}
		defer w.Close()
		s.records = whRuns * perRun
		s.ops(2)
		s.ok(cold.Ingested == whRuns && cold.Records == s.records,
			"cold refresh ingested %d run(s), %d record(s); want %d, %d", cold.Ingested, cold.Records, whRuns, s.records)

		for _, path := range files[whRuns:] {
			if err := land(path); err != nil {
				return s, err
			}
			var rs warehouse.RefreshStats
			if _, err := m.timed("warehouse.refresh_incremental", 0, func() (err error) { rs, err = w.Refresh(); return }); err != nil {
				return s, err
			}
			s.ops(1)
			s.ok(rs.Ingested == 1 && rs.Records == perRun, "incremental refresh ingested %d run(s), %d record(s); want 1, %d", rs.Ingested, rs.Records, perRun)
		}

		for _, req := range reqs {
			d, err := m.timed("warehouse.query_"+req.Kind, 0, func() error { _, err := w.Query(req); return err })
			if err != nil {
				return s, err
			}
			m.op(d)
		}
		s.ops(len(reqs))

		res, err := w.Query(warehouse.Request{Kind: warehouse.KindHistory, Experiment: expName, Response: "ms", Cell: trackedHash})
		if err != nil {
			return s, err
		}
		same := len(res.History) == len(files)
		for i := 0; same && i < len(files); i++ {
			same = res.History[i].N == unitReps && res.History[i].Mean == wantMean[i]
		}
		s.ok(same, "history of cell %d differs from the per-run (n, mean) computed from the inputs", tracked)

		var idle warehouse.RefreshStats
		if _, err := m.timed("warehouse.refresh_unchanged", 0, func() (err error) { idle, err = w.Refresh(); return }); err != nil {
			return s, err
		}
		if idle.Candidates > 0 {
			m.set("warehouse.stat_skip_ratio", float64(idle.Unchanged)/float64(idle.Candidates))
		}
		if err := w.Close(); err != nil {
			return s, err
		}
		s.bytes, s.stored = fileSize(filepath.Join(dir, warehouse.IndexFile)), len(files)*perRun
		m.set("warehouse.index_bytes", float64(s.bytes))

		// Resume: a new process opens the warehouse and refreshes; every
		// source must be skipped on a stat alone.
		var again warehouse.RefreshStats
		settle()
		s.resume, err = m.timed("warehouse.reopen", 0, func() error {
			w2, err := warehouse.Open(dir, warehouse.Options{Metrics: obs.NewRegistry()})
			if err != nil {
				return err
			}
			defer w2.Close()
			again, err = w2.Refresh()
			return err
		})
		s.ops(1)
		s.ok(again.Unchanged == len(files) && again.Ingested == 0,
			"reopened warehouse skipped %d and re-ingested %d source(s); want %d, 0", again.Unchanged, again.Ingested, len(files))
		return s, err
	}, nil
}
