package collector_test

import (
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
)

// e2eExperiment mirrors the scheduler tests' 2^2 x reps design whose
// response depends only on (assignment, replicate): any execution
// order — single process, sharded, or collected from a fleet — must
// yield identical records.
func e2eExperiment(t *testing.T, reps int, run harness.RunFunc) *harness.Experiment {
	t.Helper()
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = reps
	if run == nil {
		run = e2eRunner
	}
	return &harness.Experiment{
		Name: "collector 2^2", Design: d, Responses: []string{"MIPS"}, Run: run,
	}
}

func e2eRunner(a design.Assignment, rep int) (map[string]float64, error) {
	base := map[string]float64{
		"cache=1KB memory=4MB":  15,
		"cache=2KB memory=4MB":  25,
		"cache=1KB memory=16MB": 45,
		"cache=2KB memory=16MB": 75,
	}[a.String()]
	if base == 0 {
		return nil, fmt.Errorf("unknown assignment %s", a)
	}
	return map[string]float64{"MIPS": base + float64(rep)*0.25}, nil
}

// referenceJournal runs the experiment in-process on one worker and
// returns the compacted single-process journal bytes — the ground truth
// every distributed execution must reproduce exactly.
func referenceJournal(t *testing.T, reps int) []byte {
	t.Helper()
	dir := t.TempDir()
	s := sched.New(sched.Options{Workers: 1, Open: func(name string) (runstore.Store, error) { return runstore.OpenDir(dir, name) }})
	if _, err := s.Execute(context.Background(), e2eExperiment(t, reps, nil)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, runstore.SanitizeName("collector 2^2")+".jsonl")
	dst := filepath.Join(dir, "reference.compact.jsonl")
	if _, err := runstore.Compact(src, dst); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(dst)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// collectedJournal merges the collector's shard journals and returns the
// compacted bytes.
func collectedJournal(t *testing.T, srvDir string, shards int) []byte {
	t.Helper()
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	if _, err := runstore.Merge(shardstore.Paths(srvDir, "collector 2^2", shards), merged); err != nil {
		t.Fatal(err)
	}
	compacted := merged + ".compact"
	if _, err := runstore.Compact(merged, compacted); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(compacted)
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// TestFleetMergeByteIdentity is the tentpole acceptance test: three
// concurrent workers collect one experiment through the daemon, and the
// merged server-side store is byte-identical to a single-process run.
func TestFleetMergeByteIdentity(t *testing.T) {
	const reps, shards, fleet = 3, 3, 3
	srvDir := t.TempDir()
	srv, err := collector.New(collector.Config{Dir: srvDir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	workers := make([]*client.Worker, fleet)
	for i := range workers {
		w, err := client.NewWorker(client.Options{
			URL:         hs.URL,
			Worker:      fmt.Sprintf("fleet-%d", i),
			Workers:     2,
			SpoolDir:    t.TempDir(),
			AcquireWait: 10 * time.Millisecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		workers[i] = w
	}
	var wg sync.WaitGroup
	errs := make([]error, fleet)
	for i, w := range workers {
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Execute(context.Background(), e2eExperiment(t, reps, nil))
		}()
	}
	wg.Wait()
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}

	// Every unit ran exactly once somewhere in the fleet, every record
	// was acknowledged, and every shard was completed by somebody.
	var executed, shardsDone int
	var streamed int64
	for _, w := range workers {
		r := w.Report()
		executed += r.Executed
		shardsDone += r.Shards
		streamed += r.Streamed
	}
	units := 4 * reps
	if executed != units || streamed != int64(units) || shardsDone != shards {
		t.Errorf("fleet executed %d units, streamed %d, completed %d shards; want %d/%d/%d",
			executed, streamed, shardsDone, units, units, shards)
	}

	// The acceptance bar: merged collector output == single-process run,
	// byte for byte.
	want := referenceJournal(t, reps)
	got := collectedJournal(t, srvDir, shards)
	if !bytes.Equal(got, want) {
		t.Errorf("collected store differs from the single-process journal:\ncollected:\n%s\nreference:\n%s", got, want)
	}
}

// collectorCrashEnv carries the collector URL into the child process;
// its presence turns TestCollectorCrashChild into the crash body.
const collectorCrashEnv = "COLLECTOR_CRASH_URL"

// collectorCrashExit is the child's abrupt exit code, checked by the
// parent so an unrelated failure cannot masquerade as the scripted
// crash.
const collectorCrashExit = 42

// TestCollectorCrashChild is the child half of
// TestWorkerCrashLeaseHandoff: re-invoked with COLLECTOR_CRASH_URL set,
// it works the experiment with per-record streaming and dies without
// unwinding — no release, no renewal, no flush — in the middle of the
// fifth unit. The scheduler starts a unit as soon as the last one is
// queued for its committer, so the dying unit first waits for the state
// the parent asserts: the daemon holding the first four records.
func TestCollectorCrashChild(t *testing.T) {
	url := os.Getenv(collectorCrashEnv)
	if url == "" {
		t.Skip("child-process body for TestWorkerCrashLeaseHandoff")
	}
	status := client.New(url, nil)
	streamed := func() (n int64) {
		st, err := status.Status(context.Background())
		if err != nil {
			return 0
		}
		for _, e := range st.Experiments {
			n += e.Records
		}
		return n
	}
	count := 0
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		count++ // Workers: 1, so a single goroutine runs every unit
		if count == 5 {
			for deadline := time.Now().Add(10 * time.Second); streamed() < 4 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			os.Exit(collectorCrashExit)
		}
		return e2eRunner(a, rep)
	}
	w, err := client.NewWorker(client.Options{
		URL: url, Worker: "doomed", Workers: 1,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Execute(context.Background(), e2eExperiment(t, 3, run))
	t.Fatal("child should have died mid-stream")
}

// TestWorkerCrashLeaseHandoff is the distributed crash-injection test:
// a worker in a separate process is killed mid-stream, its lease
// expires, a surviving worker warm-starts the shard from everything the
// dead worker streamed, and the final merged store is byte-identical to
// a single-process run.
func TestWorkerCrashLeaseHandoff(t *testing.T) {
	const reps = 3
	srvDir := t.TempDir()
	srv, err := collector.New(collector.Config{
		Dir:      srvDir,
		Shards:   1,
		LeaseTTL: 300 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	hs := httptest.NewServer(srv)
	defer hs.Close()
	defer srv.Close()

	// The doomed worker runs in its own process so its death severs the
	// stream exactly as a machine loss would: no flush, no release.
	cmd := exec.Command(os.Args[0], "-test.run=^TestCollectorCrashChild$")
	cmd.Env = append(os.Environ(), collectorCrashEnv+"="+hs.URL)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly, want a crash; output:\n%s", out)
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != collectorCrashExit {
		t.Fatalf("child died with %v, want exit %d; output:\n%s", err, collectorCrashExit, out)
	}

	// The survivor retries acquire until the dead worker's lease expires,
	// then warm-starts: the four streamed units replay, the remaining
	// eight execute.
	w, err := client.NewWorker(client.Options{
		URL:         hs.URL,
		Worker:      "survivor",
		Workers:     1,
		SpoolDir:    t.TempDir(),
		AcquireWait: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := w.Execute(context.Background(), e2eExperiment(t, reps, nil)); err != nil {
		t.Fatal(err)
	}
	r := w.Report()
	if r.Replayed != 4 || r.Executed != 8 {
		t.Errorf("survivor replayed %d and executed %d unit(s), want 4 replayed (the dead worker's stream) and 8 executed", r.Replayed, r.Executed)
	}

	want := referenceJournal(t, reps)
	got := collectedJournal(t, srvDir, 1)
	if !bytes.Equal(got, want) {
		t.Errorf("collected store differs from the single-process journal after the handoff:\ncollected:\n%s\nreference:\n%s", got, want)
	}
}

// oldDaemon fronts a collector the way one that predates wait_ms would
// behave: it ignores the field — every acquire that finds nothing is
// answered 409 at once — and, like any daemon, counts what it is asked.
type oldDaemon struct {
	next     http.Handler
	mu       sync.Mutex
	requests map[string]int // path → requests seen
	waits    []int64        // the wait_ms of every acquire, before it was dropped
}

func (o *oldDaemon) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	o.mu.Lock()
	o.requests[r.URL.Path]++
	o.mu.Unlock()
	if r.URL.Path == collector.PathAcquire {
		var req collector.AcquireRequest
		if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
			http.Error(w, err.Error(), http.StatusBadRequest)
			return
		}
		o.mu.Lock()
		o.waits = append(o.waits, req.WaitMillis)
		o.mu.Unlock()
		req.WaitMillis = 0
		body, _ := json.Marshal(req)
		r = r.Clone(r.Context())
		r.Body, r.ContentLength = io.NopCloser(bytes.NewReader(body)), int64(len(body))
	}
	o.next.ServeHTTP(w, r)
}

// TestNewWorkerOldDaemon: workers that ask to be held, against a daemon
// that never holds, complete the run exactly as before — every early 409
// is slept out to AcquireWait, so the acquire count stays what polling at
// that interval gives, not a hot loop — and a named worker costs the
// daemon no register round trip.
func TestNewWorkerOldDaemon(t *testing.T) {
	const reps, shards, fleet, wait = 3, 2, 3, 40 * time.Millisecond
	srvDir := t.TempDir()
	srv, err := collector.New(collector.Config{Dir: srvDir, Shards: shards})
	if err != nil {
		t.Fatal(err)
	}
	old := &oldDaemon{next: srv, requests: map[string]int{}}
	hs := httptest.NewServer(old)
	defer hs.Close()
	defer srv.Close()

	// A runner slow enough that the worker left without a shard finds
	// the pool busy more than once.
	slow := func(a design.Assignment, rep int) (map[string]float64, error) {
		time.Sleep(15 * time.Millisecond)
		return e2eRunner(a, rep)
	}
	start := time.Now()
	var wg sync.WaitGroup
	errs := make([]error, fleet)
	for i := range errs {
		w, err := client.NewWorker(client.Options{
			URL: hs.URL, Worker: fmt.Sprintf("new-%d", i), Workers: 1,
			SpoolDir: t.TempDir(), AcquireWait: wait,
		})
		if err != nil {
			t.Fatal(err)
		}
		wg.Add(1)
		go func() {
			defer wg.Done()
			_, errs[i] = w.Execute(context.Background(), e2eExperiment(t, reps, slow))
		}()
	}
	wg.Wait()
	elapsed := time.Since(start)
	for i, err := range errs {
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
	}
	if got, want := collectedJournal(t, srvDir, shards), referenceJournal(t, reps); !bytes.Equal(got, want) {
		t.Errorf("collected store differs from the single-process journal:\ncollected:\n%s\nreference:\n%s", got, want)
	}

	old.mu.Lock()
	defer old.mu.Unlock()
	if n := old.requests[collector.PathRegister]; n != 0 {
		t.Errorf("%d register request(s) from named workers, want none", n)
	}
	for _, ms := range old.waits {
		if ms != wait.Milliseconds() {
			t.Fatalf("an acquire carried wait_ms %d, want AcquireWait = %d", ms, wait.Milliseconds())
		}
	}
	// Per worker: one acquire per shard it ran, one that was told
	// "complete", and at most one per AcquireWait of the run in between.
	acquires := old.requests[collector.PathAcquire]
	if limit := shards + fleet + fleet*int(elapsed/wait+1); acquires > limit || acquires < shards+fleet+1 {
		t.Errorf("%d acquire(s) in %v at AcquireWait %v; want at least %d (someone must have found the pool busy) and at most %d",
			acquires, elapsed, wait, shards+fleet+1, limit)
	}
}

// TestSpoolAndCollectorDisagree: a batch is spooled and ingested side by
// side, so a worker that dies (or loses one of the two) can leave either
// copy ahead of the other. Whatever the next run over that spool finds —
// records only the spool holds, records only the collector holds, a torn
// spool, both — the collector ends up with every unit, the merged store
// is the single-process journal byte for byte, and nothing is executed
// that either copy already held.
func TestSpoolAndCollectorDisagree(t *testing.T) {
	const reps, units = 10, 40
	exp := e2eExperiment(t, reps, nil)
	// The units in the order a one-worker run finishes them.
	refDir := t.TempDir()
	if _, err := sched.New(sched.Options{Workers: 1, Open: func(name string) (runstore.Store, error) { return runstore.OpenDir(refDir, name) }}).Execute(context.Background(), exp); err != nil {
		t.Fatal(err)
	}
	all, err := runstore.LoadRecords(filepath.Join(refDir, runstore.SanitizeName(exp.Name)+".jsonl"))
	if err != nil || len(all) != units {
		t.Fatalf("reference run: %d record(s), %v", len(all), err)
	}
	want := referenceJournal(t, reps)

	for _, tc := range []struct {
		name      string
		spooled   []runstore.Record // in the spool before the run
		torn      bool              // …followed by half a record
		collected []runstore.Record // acknowledged by the collector before the run
		report    client.Report
	}{
		// The bug this test was written for: spooled, never acknowledged.
		// The scheduler replays the ten and streams nothing for them.
		{name: "spool ahead", spooled: all[:10],
			report: client.Report{Shards: 1, Executed: 30, Replayed: 10, Streamed: 40}},
		{name: "collector ahead, no spool", collected: all[:10],
			report: client.Report{Shards: 1, Executed: 30, Replayed: 10, Streamed: 30}},
		{name: "collector ahead, spool torn", spooled: all[:9], torn: true, collected: all[:10],
			report: client.Report{Shards: 1, Executed: 30, Replayed: 10, Streamed: 30}},
		{name: "each ahead of the other", spooled: all[:10], collected: all[5:15],
			report: client.Report{Shards: 1, Executed: 25, Replayed: 15, Streamed: 30}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			srvDir, spoolDir := t.TempDir(), t.TempDir()
			srv, err := collector.New(collector.Config{Dir: srvDir, Shards: 1})
			if err != nil {
				t.Fatal(err)
			}
			hs := httptest.NewServer(srv)
			defer hs.Close()
			defer srv.Close()
			ctx := context.Background()

			if len(tc.collected) > 0 {
				c := client.New(hs.URL, nil)
				grant, err := c.Acquire(ctx, "previous", exp.Name)
				if err != nil {
					t.Fatal(err)
				}
				if err := c.Ingest(ctx, grant.Lease, tc.collected); err != nil {
					t.Fatal(err)
				}
				if err := c.Release(ctx, grant.Lease, false); err != nil {
					t.Fatal(err)
				}
			}
			spool := shardstore.Path(spoolDir, exp.Name, 0, 1)
			if len(tc.spooled) > 0 {
				j, err := runstore.Open(spool)
				if err != nil {
					t.Fatal(err)
				}
				if err := j.AppendBatch(tc.spooled); err != nil {
					t.Fatal(err)
				}
				if err := j.Close(); err != nil {
					t.Fatal(err)
				}
			}
			if tc.torn {
				f, err := os.OpenFile(spool, os.O_WRONLY|os.O_APPEND, 0)
				if err != nil {
					t.Fatal(err)
				}
				if _, err := f.WriteString(`{"experiment":"collector 2^2","row":2,"repl`); err != nil {
					t.Fatal(err)
				}
				f.Close()
			}

			w, err := client.NewWorker(client.Options{
				URL: hs.URL, Worker: "restarted", Workers: 1, SpoolDir: spoolDir,
			})
			if err != nil {
				t.Fatal(err)
			}
			if _, err := w.Execute(ctx, exp); err != nil {
				t.Fatal(err)
			}
			if got := w.Report(); got != tc.report {
				t.Errorf("Report = %+v, want %+v", got, tc.report)
			}
			merged := filepath.Join(t.TempDir(), "merged.jsonl")
			ms, err := runstore.Merge(shardstore.Paths(srvDir, exp.Name, 1), merged)
			if err != nil {
				t.Fatal(err)
			}
			if ms.Kept != units {
				t.Errorf("Merge kept %d record(s), want %d", ms.Kept, units)
			}
			if got := collectedJournal(t, srvDir, 1); !bytes.Equal(got, want) {
				t.Errorf("collected store differs from the single-process journal:\ncollected:\n%s\nreference:\n%s", got, want)
			}
		})
	}
}
