package main

import (
	"bytes"
	"context"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"
)

// syncBuffer lets the test read the serve goroutine's output while it
// is still being written.
type syncBuffer struct {
	mu sync.Mutex
	b  bytes.Buffer
}

func (s *syncBuffer) Write(p []byte) (int, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.Write(p)
}

func (s *syncBuffer) String() string {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.b.String()
}

// TestCollectorWorkflowEndToEnd drives collector mode through the CLI:
// `perfeval serve` on a free port, one `perfeval work` process draining
// every shard, then the acceptance property — the collector's merged
// store is byte-identical to a single-process run's journal.
func TestCollectorWorkflowEndToEnd(t *testing.T) {
	dir := t.TempDir()
	storeDir := filepath.Join(dir, "store")

	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	var serveOut syncBuffer
	serveDone := make(chan error, 1)
	go func() {
		serveDone <- runCtxW(ctx, &serveOut, []string{
			"-Dcollector.dir=" + storeDir, "-Dcollector.addr=127.0.0.1:0",
			"-Dcollector.shards=2", "serve",
		})
	}()

	// The daemon announces its bound address on stdout; scrape it.
	var addr string
	deadline := time.Now().Add(10 * time.Second)
	for addr == "" {
		if _, rest, ok := strings.Cut(serveOut.String(), "collector listening on "); ok {
			addr = strings.Fields(rest)[0]
			addr = strings.TrimSuffix(addr, ",")
			break
		}
		if time.Now().After(deadline) {
			t.Fatalf("serve never announced its address:\n%s", serveOut.String())
		}
		time.Sleep(5 * time.Millisecond)
	}

	// One worker drains both shards (the acquire loop runs until the
	// server reports the experiment complete) and renders the artifact.
	var workOut bytes.Buffer
	err := runW(&workOut, []string{
		"-Dcollector.url=http://" + addr, "-Dsched.workers=1",
		"-Dworker.name=cli-worker", "-Dworker.spool=" + filepath.Join(dir, "spool"),
		"work", "t4",
	})
	if err != nil {
		t.Fatalf("work: %v\n%s", err, workOut.String())
	}
	for _, want := range []string{"=== t4", "collector worker: completed 2 shard(s)", "4 unit(s) executed"} {
		if !strings.Contains(workOut.String(), want) {
			t.Errorf("work output missing %q:\n%s", want, workOut.String())
		}
	}

	// The collector's store merges into exactly the single-process
	// journal.
	shardFiles, err := filepath.Glob(filepath.Join(storeDir, "*.shard-*-of-002.jsonl"))
	if err != nil || len(shardFiles) != 2 {
		t.Fatalf("collector shard files = %v (err %v), want exactly 2", shardFiles, err)
	}
	merged := filepath.Join(dir, "merged.jsonl")
	var out bytes.Buffer
	if err := runW(&out, append([]string{"merge", merged}, shardFiles...)); err != nil {
		t.Fatalf("merge: %v\n%s", err, out.String())
	}
	refDir := filepath.Join(dir, "ref")
	out.Reset()
	if err := runW(&out, []string{"-Dsched.workers=1", "-Djournal.dir=" + refDir, "run", "t4"}); err != nil {
		t.Fatalf("reference run: %v\n%s", err, out.String())
	}
	refFiles, err := filepath.Glob(filepath.Join(refDir, "*.jsonl"))
	if err != nil || len(refFiles) != 1 {
		t.Fatalf("reference journals = %v (err %v), want exactly 1", refFiles, err)
	}
	for _, p := range []string{merged, refFiles[0]} {
		out.Reset()
		if err := runW(&out, []string{"compact", p}); err != nil {
			t.Fatalf("compact %s: %v\n%s", p, err, out.String())
		}
	}
	mergedData, err := os.ReadFile(merged)
	if err != nil {
		t.Fatal(err)
	}
	refData, err := os.ReadFile(refFiles[0])
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(mergedData, refData) {
		t.Errorf("collected store differs from the single-process journal:\ncollected:\n%s\nreference:\n%s", mergedData, refData)
	}

	// Ctrl-C (a canceled context) stops the daemon cleanly.
	cancel()
	select {
	case err := <-serveDone:
		if err != nil {
			t.Errorf("serve returned %v on shutdown, want nil", err)
		}
	case <-time.After(10 * time.Second):
		t.Fatal("serve did not shut down after cancellation")
	}
}

// TestServeFlagValidation pins the CLI-boundary errors of collector
// mode: a daemon or worker started with a dropped required flag must
// fail loudly.
func TestServeFlagValidation(t *testing.T) {
	cases := []struct {
		args []string
		want string
	}{
		{[]string{"serve"}, "collector.dir"},
		{[]string{"work", "t4"}, "collector.url"},
		{[]string{"-Dcollector.dir=x", "-Dcollector.shards=0", "serve"}, "need >= 1"},
	}
	for _, c := range cases {
		var out bytes.Buffer
		err := runW(&out, c.args)
		if err == nil || !strings.Contains(err.Error(), c.want) {
			t.Errorf("%v: err = %v, want mention of %q", c.args, err, c.want)
		}
	}
}

// TestShardPlanMentionsCollector keeps the shard-plan transcript in sync
// with collector mode: the printed plan must offer the serve/work
// alternative.
func TestShardPlanMentionsCollector(t *testing.T) {
	var out bytes.Buffer
	if err := runW(&out, []string{"-Dsched.shards=3", "shard-plan", "t4"}); err != nil {
		t.Fatalf("shard-plan: %v\n%s", err, out.String())
	}
	for _, want := range []string{
		"perfeval serve -Dcollector.dir=shards -Dcollector.shards=3",
		"perfeval work t4 -Dcollector.url=",
		"docs/COLLECTOR.md",
	} {
		if !strings.Contains(out.String(), want) {
			t.Errorf("shard-plan output missing %q:\n%s", want, out.String())
		}
	}
}
