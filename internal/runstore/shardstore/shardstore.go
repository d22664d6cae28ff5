package shardstore

import (
	"fmt"
	"path/filepath"

	"repro/internal/runstore"
)

// Path returns the file path of one shard of an experiment's store.
func Path(dir, experiment string, shard, shards int) string {
	return filepath.Join(dir, fmt.Sprintf("%s.shard-%03d-of-%03d.jsonl",
		runstore.SanitizeName(experiment), shard, shards))
}

// Paths returns every shard file path of an experiment's store, in shard
// order — the argument list for runstore.Merge.
func Paths(dir, experiment string, shards int) []string {
	out := make([]string, shards)
	for i := range out {
		out[i] = Path(dir, experiment, i, shards)
	}
	return out
}
