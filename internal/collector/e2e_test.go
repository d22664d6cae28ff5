package collector_test

import (
	"bytes"
	"context"
	"fmt"
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
	s := sched.New(sched.Options{Workers: 1, JournalDir: dir})
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
