package shardstore_test

import (
	"os"
	"testing"

	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/runstore/storetest"
)

// TestShardstoreConformance runs the shared Store contract suite against
// a shard file as the scheduler and the collector open it: a
// runstore.Journal at Path.
func TestShardstoreConformance(t *testing.T) {
	const shard, shards = 1, 3
	storetest.Run(t, storetest.Backend{
		Name: "shard journal",
		Open: func(t *testing.T, dir string) runstore.Store {
			j, err := runstore.Open(shardstore.Path(dir, "e", shard, shards))
			if err != nil {
				t.Fatal(err)
			}
			return j
		},
		Tear: func(t *testing.T, dir string) {
			// A crashed worker tears at most the trailing line of the one
			// shard file it writes.
			f, err := os.OpenFile(shardstore.Path(dir, "e", shard, shards), os.O_APPEND|os.O_WRONLY, 0)
			if err != nil {
				t.Fatal(err)
			}
			defer f.Close()
			if _, err := f.WriteString(`{"experiment":"e","resp`); err != nil {
				t.Fatal(err)
			}
		},
	})
}

// TestPathNaming pins the shard-file name docs/FORMAT.md specifies —
// <sanitized experiment>.shard-KKK-of-NNN.jsonl — and Paths' shard order,
// the argument order runstore.Merge is handed.
func TestPathNaming(t *testing.T) {
	if got, want := shardstore.Path("d", "sched 2^2", 1, 12), "d/"+runstore.SanitizeName("sched 2^2")+".shard-001-of-012.jsonl"; got != want {
		t.Errorf("Path = %q, want %q", got, want)
	}
	paths := shardstore.Paths("d", "e", 3)
	if len(paths) != 3 {
		t.Fatalf("Paths = %q, want 3 paths", paths)
	}
	for k, p := range paths {
		if want := shardstore.Path("d", "e", k, 3); p != want {
			t.Errorf("Paths[%d] = %q, want %q", k, p, want)
		}
	}
}
