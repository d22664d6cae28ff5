package collector

import (
	"bytes"
	"os"
	"path/filepath"
	"reflect"
	"testing"
)

// goldenEvents is what was appended, in order, to produce the golden
// control-state journal (testdata/golden, written once by the build
// that introduced the format): two daemon incarnations, a lease whose
// deadline a renew supersedes, and a completing release.
var goldenEvents = []stateEvent{
	{Type: "epoch", Epoch: 1},
	{Type: "worker", Worker: "worker-1-1"},
	{Type: "acquire", Lease: "lease-1-2", Worker: "worker-1-1", Experiment: "golden", Shard: 1, ExpiresMS: 5_000},
	{Type: "renew", Lease: "lease-1-2", ExpiresMS: 9_000},
	{Type: "epoch", Epoch: 2},
	{Type: "release", Lease: "lease-1-2", Complete: true},
	{Type: "acquire", Lease: "lease-2-1", Worker: "worker-1-1", Experiment: "golden", ExpiresMS: 12_000},
	{Type: "expire", Lease: "lease-2-1"},
}

func TestGoldenStateLog(t *testing.T) {
	const goldenDir = "../../testdata/golden"
	clean, err := os.ReadFile(filepath.Join(goldenDir, StateFile))
	if err != nil {
		t.Fatal(err)
	}
	for _, file := range []string{StateFile, "collector.state.torn.jsonl"} {
		t.Run(file, func(t *testing.T) {
			data, err := os.ReadFile(filepath.Join(goldenDir, file))
			if err != nil {
				t.Fatal(err)
			}
			path := filepath.Join(t.TempDir(), StateFile)
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
			log, events, err := openStateLog(path)
			if err != nil {
				t.Fatalf("open: %v", err)
			}
			defer log.close()
			if !reflect.DeepEqual(events, goldenEvents) {
				t.Errorf("replayed\n got %+v\nwant %+v", events, goldenEvents)
			}
			// Open repairs a torn tail down to the clean file's bytes and
			// leaves a clean file alone.
			if repaired, _ := os.ReadFile(path); !bytes.Equal(repaired, clean) {
				t.Fatalf("opened file holds %d byte(s), want the clean file's %d", len(repaired), len(clean))
			}

			freshPath := filepath.Join(t.TempDir(), StateFile)
			fresh, _, err := openStateLog(freshPath)
			if err != nil {
				t.Fatal(err)
			}
			for _, ev := range goldenEvents {
				if err := fresh.append(ev); err != nil {
					t.Fatal(err)
				}
			}
			fresh.close()
			if rewritten, _ := os.ReadFile(freshPath); !bytes.Equal(rewritten, clean) {
				t.Errorf("today's writer no longer reproduces %s byte for byte:\n got %q\nwant %q", StateFile, rewritten, clean)
			}

			extra := stateEvent{Type: "epoch", Epoch: 3}
			if err := log.append(extra); err != nil {
				t.Fatalf("append to the opened golden file: %v", err)
			}
			log.close()
			again, events, err := openStateLog(path)
			if err != nil {
				t.Fatalf("reopen after append: %v", err)
			}
			defer again.close()
			if want := append(append([]stateEvent{}, goldenEvents...), extra); !reflect.DeepEqual(events, want) {
				t.Errorf("reopened replay = %+v, want %+v", events, want)
			}
			if grown, _ := os.ReadFile(path); !bytes.HasPrefix(grown, clean) || len(grown) <= len(clean) {
				t.Error("append + reopen did not leave the original bytes as a strict prefix")
			}
		})
	}
}
