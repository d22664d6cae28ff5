// The soak: one experiment collected by a worker fleet while every
// fault the collector claims to survive is injected at once — workers
// killed mid-stream, a 429 storm on a deliberately tiny ingest budget
// that a held ingest keeps spent, the daemon killed and restarted
// mid-ingest, and torn connections.
// The acceptance bar is absolute: the merged, compacted collector store
// must be byte-identical to an undisturbed single-process run.
package soaktest

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"sync"
	"testing"
	"time"

	"repro/internal/collector"
	"repro/internal/collector/client"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/sched"
)

const (
	soakName  = "soak 2^3"
	soakToken = "soak-token"

	// soakChildEnv carries the collector URL into the doomed-worker
	// child process; its presence turns TestSoakChild into the crash
	// body (the same re-exec pattern as the e2e crash-handoff test).
	soakChildEnv  = "SOAK_CHILD_URL"
	soakChildName = "SOAK_CHILD_NAME"
	soakChildReps = "SOAK_CHILD_REPS"
	soakChildExit = 41
	soakFullEnv   = "SOAK_FULL"
)

// soakProfile scales the schedule: the default is the CI smoke (a few
// seconds), SOAK_FULL=1 — what `make soak` sets — runs the real thing.
// unitDelay paces the fleet's runner so collection stays in flight long
// enough for every restart cycle to land on live traffic; the reference
// run stays instant (the response does not depend on the pacing).
type soakProfile struct {
	reps         int // replicates per design cell (8 cells)
	kills        int // workers killed mid-stream before the fleet starts
	fleet        int // surviving workers racing for shards
	restarts     int // daemon kill/restart cycles during collection
	ttl          time.Duration
	unitDelay    time.Duration // per-unit pacing in the fleet's runner
	restartEvery time.Duration // gap between daemon kill cycles
	downFor      time.Duration // how long each kill stays dark
}

// Each dark window must outlast the fleet's longest between-dial sleep
// (the ~120ms jittered ceiling of a 429 backpressure wait): during a
// storm every worker can be parked in one of those sleeps at once, and
// a shorter window can then open and close with no dial landing in it —
// leaving the "fleet retried a transport error" assertion flaky.
func profile() soakProfile {
	if os.Getenv(soakFullEnv) != "" && !testing.Short() {
		return soakProfile{
			reps: 8, kills: 2, fleet: 4, restarts: 5, ttl: 2 * time.Second,
			unitDelay: 120 * time.Millisecond, restartEvery: 800 * time.Millisecond, downFor: 250 * time.Millisecond,
		}
	}
	return soakProfile{
		reps: 3, kills: 1, fleet: 3, restarts: 2, ttl: time.Second,
		unitDelay: 60 * time.Millisecond, restartEvery: 400 * time.Millisecond, downFor: 250 * time.Millisecond,
	}
}

// soakExperiment is a 2^3 design whose response depends only on
// (assignment, replicate): any execution order, interruption schedule,
// or replay must reproduce identical records.
func soakExperiment(t *testing.T, reps int, run harness.RunFunc) *harness.Experiment {
	t.Helper()
	d, err := design.TwoLevelFull([]design.Factor{
		design.MustFactor("memory", "4MB", "16MB"),
		design.MustFactor("cache", "1KB", "2KB"),
		design.MustFactor("threads", "1", "8"),
	})
	if err != nil {
		t.Fatal(err)
	}
	d.Replicates = reps
	if run == nil {
		run = soakRunner
	}
	return &harness.Experiment{
		Name: soakName, Design: d, Responses: []string{"MIPS"}, Run: run,
	}
}

func soakRunner(a design.Assignment, rep int) (map[string]float64, error) {
	base := 0.0
	for _, f := range []struct {
		factor string
		hi     string
		weight float64
	}{
		{"memory", "16MB", 100},
		{"cache", "2KB", 10},
		{"threads", "8", 1},
	} {
		switch a[f.factor] {
		case f.hi:
			base += 2 * f.weight
		case "":
			return nil, fmt.Errorf("assignment %s missing factor %s", a, f.factor)
		default:
			base += f.weight
		}
	}
	return map[string]float64{"MIPS": base + float64(rep)*0.25}, nil
}

// referenceJournal is the ground truth: the same experiment run
// undisturbed in a single process, compacted.
func referenceJournal(t *testing.T, reps int) []byte {
	t.Helper()
	dir := t.TempDir()
	s := sched.New(sched.Options{Workers: 1, Open: func(name string) (runstore.Store, error) { return runstore.OpenDir(dir, name) }})
	if _, err := s.Execute(context.Background(), soakExperiment(t, reps, nil)); err != nil {
		t.Fatal(err)
	}
	src := filepath.Join(dir, runstore.SanitizeName(soakName)+".jsonl")
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

// collectedJournal merges and compacts the daemon's shard journals.
func collectedJournal(t *testing.T, srvDir string, shards int) []byte {
	t.Helper()
	merged := filepath.Join(t.TempDir(), "merged.jsonl")
	if _, err := runstore.Merge(shardstore.Paths(srvDir, soakName, shards), merged); err != nil {
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

// TestSoakChild is the doomed worker: re-invoked with SOAK_CHILD_URL
// set, it streams every finished unit as soon as the one before is
// acknowledged and dies without unwinding — no release, no lease
// renewal — in the middle of its third unit, leaving a live lease and a
// partial stream for the TTL sweep and a surviving worker to clean up.
// The scheduler
// starts a unit as soon as the last one is queued for its committer, so
// the dying unit first waits until the daemon holds the two records this
// child streamed (on top of what earlier children left).
func TestSoakChild(t *testing.T) {
	url := os.Getenv(soakChildEnv)
	if url == "" {
		t.Skip("child-process body for TestSoak")
	}
	reps, err := strconv.Atoi(os.Getenv(soakChildReps))
	if err != nil {
		t.Fatal(err)
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
	before := streamed()
	count := 0
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		count++ // Workers: 1, so a single goroutine runs every unit
		if count == 3 {
			for deadline := time.Now().Add(10 * time.Second); streamed() < before+2 && time.Now().Before(deadline); {
				time.Sleep(time.Millisecond)
			}
			os.Exit(soakChildExit)
		}
		return soakRunner(a, rep)
	}
	w, err := client.NewWorker(client.Options{
		URL:         url,
		Worker:      os.Getenv(soakChildName),
		Token:       soakToken,
		Workers:     1,
		AcquireWait: 25 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	w.Execute(context.Background(), soakExperiment(t, reps, run))
	t.Fatal("child should have died mid-stream")
}

// refusalSeen is the fleet's transport: it calls refused on every 429 a
// worker receives, before the worker counts the backpressure wait.
type refusalSeen struct {
	http.RoundTripper
	refused func()
}

func (r refusalSeen) RoundTrip(req *http.Request) (*http.Response, error) {
	resp, err := r.RoundTripper.RoundTrip(req)
	if err == nil && resp.StatusCode == http.StatusTooManyRequests {
		r.refused()
	}
	return resp, err
}

// TestSoak runs the whole gauntlet. Default profile is the CI smoke;
// `make soak` (SOAK_FULL=1) runs the long schedule. Both assert the
// same contract: every injected fault is absorbed and the collected
// result is byte-identical to the single-process reference.
func TestSoak(t *testing.T) {
	p := profile()
	const shards = 4
	want := referenceJournal(t, p.reps)

	reg := obs.NewRegistry()
	srvDir := t.TempDir()
	d, err := NewDaemon(collector.Config{
		Dir:         srvDir,
		Shards:      shards,
		LeaseTTL:    p.ttl,
		MaxInflight: 256, // a few records deep: a held ingest spends it all
		RetryAfter:  100 * time.Millisecond,
		Token:       soakToken,
		Metrics:     reg,
	})
	if err != nil {
		t.Fatal(err)
	}
	defer d.Stop()

	// Fault 1 — workers killed mid-stream: each child acquires a shard,
	// streams two records, and dies holding the lease. The fleet below
	// inherits the shard after the TTL and warm-starts from the stream.
	for i := 0; i < p.kills; i++ {
		cmd := exec.Command(os.Args[0], "-test.run=^TestSoakChild$")
		cmd.Env = append(os.Environ(),
			soakChildEnv+"="+d.URL(),
			soakChildName+"="+fmt.Sprintf("doomed-%d", i),
			soakChildReps+"="+strconv.Itoa(p.reps),
		)
		out, err := cmd.CombinedOutput()
		if err == nil {
			t.Fatalf("doomed worker %d exited cleanly, want a mid-stream crash; output:\n%s", i, out)
		}
		exitErr, ok := err.(*exec.ExitError)
		if !ok || exitErr.ExitCode() != soakChildExit {
			t.Fatalf("doomed worker %d died with %v, want exit %d; output:\n%s", i, err, soakChildExit, out)
		}
	}

	// Fault 2 — a 429 storm, forced: a held ingest under a shard lease
	// spends the experiment's whole ingest budget before the fleet
	// starts, so every ingest of the fleet is refused while it is held.
	// It is held until the first daemon kill tears it mid-record (no
	// record of it lands): the fleet is still being refused when the
	// daemon goes dark, so its re-sends land in the dark window.
	holder := client.New(d.URL(), nil)
	holder.SetToken(soakToken)
	held, err := holder.Acquire(context.Background(), "soak-holder", soakName)
	if err != nil {
		t.Fatal(err)
	}
	tear, err := HoldIngest(d.Addr(), held.Lease, soakToken, 1<<20)
	if err != nil {
		t.Fatal(err)
	}
	defer tear()
	storm := make(chan struct{})
	var stormOnce sync.Once
	fleetClient := &http.Client{Transport: refusalSeen{http.DefaultTransport, func() {
		stormOnce.Do(func() { close(storm) })
	}}}

	// The fleet: every worker's runner is paced by unitDelay — slower than
	// a round trip, so records stream nearly one by one — and collection
	// stays in flight across every restart cycle, with the dark windows
	// landing mid-ingest.
	pacedRun := func(a design.Assignment, rep int) (map[string]float64, error) {
		time.Sleep(p.unitDelay)
		return soakRunner(a, rep)
	}
	fleetReg := obs.NewRegistry()
	errs := make([]error, p.fleet)
	var fleet sync.WaitGroup
	for i := 0; i < p.fleet; i++ {
		w, err := client.NewWorker(client.Options{
			URL:         d.URL(),
			Worker:      fmt.Sprintf("soak-%d", i),
			Token:       soakToken,
			Workers:     2,
			SpoolDir:    t.TempDir(),
			AcquireWait: 150 * time.Millisecond,
			HTTPClient:  fleetClient,
			Metrics:     fleetReg,
		})
		if err != nil {
			t.Fatal(err)
		}
		fleet.Add(1)
		go func(i int) {
			defer fleet.Done()
			_, errs[i] = w.Execute(context.Background(), soakExperiment(t, p.reps, pacedRun))
		}(i)
	}
	fleetDone := make(chan struct{})
	go func() {
		fleet.Wait()
		close(fleetDone)
	}()
	select {
	case <-storm:
	case <-fleetDone: // no refusal ever came: the assertions below say so
	}
	if err := holder.Release(context.Background(), held.Lease, false); err != nil && !errors.Is(err, client.ErrLeaseLost) {
		t.Fatalf("releasing the held lease: %v", err)
	}

	// Faults 3 and 4 — daemon kill/restart cycles and torn connections —
	// run concurrently with the fleet until it finishes. They start once
	// the storm has reached the fleet: a kill severs the held ingest and
	// frees the budget.
	chaosCtx, stopChaos := context.WithCancel(context.Background())
	defer stopChaos()
	var chaos sync.WaitGroup
	var restartErr error
	restartsDone := 0
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		for i := 0; i < p.restarts; i++ {
			select {
			case <-chaosCtx.Done():
				return
			case <-time.After(p.restartEvery):
			}
			if err := d.Restart(p.downFor); err != nil {
				restartErr = err
				return
			}
			restartsDone++
		}
	}()
	torn := 0
	chaos.Add(1)
	go func() {
		defer chaos.Done()
		torn = TornConnections(chaosCtx, d.Addr(), 20*time.Millisecond)
	}()
	<-fleetDone
	stopChaos()
	chaos.Wait()
	if restartErr != nil {
		t.Fatalf("daemon restart: %v", restartErr)
	}
	for i, err := range errs {
		if err != nil {
			t.Fatalf("fleet worker %d: %v", i, err)
		}
	}

	// The faults must actually have fired — a soak that quietly injected
	// nothing proves nothing.
	if torn == 0 {
		t.Error("no torn connections were delivered")
	}
	if waits := fleetReg.Counter("worker_backpressure_waits_total", "").Value(); waits == 0 {
		t.Error("no 429 storm: the fleet never hit backpressure")
	}
	if fleetRetries := fleetReg.Counter("worker_transport_retries_total", "").Value(); restartsDone > 0 && fleetRetries == 0 {
		t.Errorf("%d daemon restart(s) but the fleet never retried a transport error", restartsDone)
	}
	if got := reg.Gauge("collector_epoch", "").Value(); got != int64(restartsDone+1) {
		t.Errorf("final epoch = %d, want %d (initial start + %d restart(s))", got, restartsDone+1, restartsDone)
	}
	if errors := reg.Counter("collector_state_errors_total", "").Value(); errors != 0 {
		t.Errorf("control-state journal reported %d append error(s)", errors)
	}

	// The daemon's own view: every shard completed.
	c := client.New(d.URL(), nil)
	c.SetToken(soakToken)
	st, err := c.Status(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	completed := false
	for _, e := range st.Experiments {
		if e.Experiment == soakName {
			completed = e.Done == shards
			if !completed {
				t.Errorf("experiment finished with %d/%d shard(s) done: %+v", e.Done, shards, e)
			}
		}
	}
	if !completed {
		t.Errorf("experiment %q missing from status: %+v", soakName, st.Experiments)
	}

	// The acceptance bar: after every injected fault, the collected
	// store is byte-identical to the undisturbed single-process run.
	if err := d.Stop(); err != nil {
		t.Fatal(err)
	}
	got := collectedJournal(t, srvDir, shards)
	if !bytes.Equal(got, want) {
		t.Errorf("collected store differs from the single-process reference after the soak:\ncollected (%d bytes):\n%s\nreference (%d bytes):\n%s",
			len(got), got, len(want), want)
	}
}
