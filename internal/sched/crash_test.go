package sched

import (
	"bytes"
	"context"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"sync"
	"testing"
	"time"

	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/runstore"
)

// crashChildEnv carries the journal dir into the child process; its
// presence is what turns TestCrashChild from a skip into the crash body.
const crashChildEnv = "SCHED_CRASH_CHILD_DIR"

// crashChildExit is the child's abrupt exit code, checked by the parent
// so an unrelated child failure cannot masquerade as the scripted crash.
const crashChildExit = 42

// TestCrashChild is not a standalone test: it is the child half of
// TestChildProcessCrashResume. Re-invoked with SCHED_CRASH_CHILD_DIR
// set, it runs a journaled single-worker experiment and dies without
// unwinding — no journal Close, no deferred cleanup — in the middle of
// the fifth unit, first smearing a half-written record onto the journal
// exactly as a process killed mid-append would. A worker starts its next
// unit as soon as the last one is queued for the committer, so the dying
// unit first waits for the state the parent asserts: units 1–4 durable.
func TestCrashChild(t *testing.T) {
	dir := os.Getenv(crashChildEnv)
	if dir == "" {
		t.Skip("child-process body for TestChildProcessCrashResume")
	}
	count := 0
	run := func(a design.Assignment, rep int) (map[string]float64, error) {
		count++ // Workers: 1, so a single goroutine runs every unit
		if count == 5 {
			path := filepath.Join(dir, runstore.SanitizeName("sched 2^2")+".jsonl")
			for deadline := time.Now().Add(10 * time.Second); time.Now().Before(deadline); time.Sleep(time.Millisecond) {
				if data, _ := os.ReadFile(path); bytes.Count(data, []byte("\n")) >= 4 {
					break
				}
			}
			f, err := os.OpenFile(path, os.O_APPEND|os.O_WRONLY, 0o644)
			if err == nil {
				f.WriteString(`{"experiment":"sched 2^2","row":9,"repl`)
			}
			os.Exit(crashChildExit)
		}
		return deterministicRunner(a, rep)
	}
	s := New(Options{Workers: 1, JournalDir: dir})
	s.Execute(context.Background(), newExperiment(t, 3, run))
	t.Fatal("child should have died mid-run")
}

// newChild re-executes this test binary to run one child-body test with
// the given environment additions.
func newChild(t *testing.T, test string, env ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(os.Args[0], "-test.run=^"+test+"$")
	cmd.Env = append(os.Environ(), env...)
	return cmd
}

// TestChildProcessCrashResume is the crash-injection test: it re-executes
// this test binary as a separate process, kills it (via the scripted
// abrupt exit above) mid-run with a torn journal line on disk, then
// reopens the journal and asserts warm start replays exactly the four
// completed units and re-executes only the missing eight — none twice.
func TestChildProcessCrashResume(t *testing.T) {
	dir := t.TempDir()
	cmd := newChild(t, "TestCrashChild", crashChildEnv+"="+dir)
	out, err := cmd.CombinedOutput()
	if err == nil {
		t.Fatalf("child exited cleanly, want a crash; output:\n%s", out)
	}
	exitErr, ok := err.(*exec.ExitError)
	if !ok || exitErr.ExitCode() != crashChildExit {
		t.Fatalf("child died with %v, want exit %d; output:\n%s", err, crashChildExit, out)
	}

	// The journal must hold exactly the four units appended before the
	// crash, plus the torn tail the crash smeared.
	j, err := runstore.OpenDir(dir, "sched 2^2")
	if err != nil {
		t.Fatal(err)
	}
	if !j.Torn() {
		t.Error("journal should have had a torn trailing line")
	}
	if j.Len() != 4 {
		t.Errorf("journal holds %d complete units, want 4", j.Len())
	}
	journaled := map[string]bool{}
	recs, err := runstore.Collect(j.Scan())
	if err != nil {
		t.Fatal(err)
	}
	for _, rec := range recs {
		journaled[fmt.Sprintf("%s/%d", rec.Hash, rec.Replicate)] = true
	}
	j.Close()

	// Warm start in-process: the journaled units replay, only the
	// missing ones execute, and no unit does both.
	var mu sync.Mutex
	executed := map[string]bool{}
	counting := func(a design.Assignment, rep int) (map[string]float64, error) {
		mu.Lock()
		executed[fmt.Sprintf("%s/%d", runstore.AssignmentHash(a), rep)] = true
		mu.Unlock()
		return deterministicRunner(a, rep)
	}
	s := New(Options{Workers: 4, JournalDir: dir})
	resumed, err := s.Execute(context.Background(), newExperiment(t, 3, counting))
	if err != nil {
		t.Fatal(err)
	}
	st := s.LastStats()
	if st.Replayed != 4 || st.Executed != 8 {
		t.Errorf("resume stats = %+v, want 4 replayed + 8 executed", st)
	}
	for key := range executed {
		if journaled[key] {
			t.Errorf("unit %s survived the crash but was re-executed", key)
		}
	}
	if len(executed)+len(journaled) != 12 {
		t.Errorf("replayed %d + executed %d units, want 12 total", len(journaled), len(executed))
	}

	// The resumed run is indistinguishable from one that never crashed.
	cold, err := harness.Sequential{}.Execute(context.Background(), newExperiment(t, 3, nil))
	if err != nil {
		t.Fatal(err)
	}
	if cold.CSV() != resumed.CSV() || cold.Report() != resumed.Report() {
		t.Error("resumed ResultSet differs from a cold run")
	}
}
