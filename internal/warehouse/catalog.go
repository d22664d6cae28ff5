package warehouse

import (
	"fmt"
	"io/fs"
	"path/filepath"
	"sort"
	"strings"
)

// storeExts are the file extensions the catalog treats as run stores.
// Discovery is by extension (content sniffing happens when the file is
// read — a renamed archive still parses), matching every on-disk format
// the runstore readers understand.
var storeExts = map[string]bool{
	".jsonl": true, // JSONL journal (and shard files)
	".binj":  true, // binary record file
	".arch":  true, // block-indexed archive
	".archz": true, // block-indexed archive, under its other name
}

// collectorStateFile is the collector daemon's control-state journal
// (collector.StateFile). It shares the .jsonl extension but holds lease
// events, not records, so the catalog skips it by name — the warehouse
// package cannot import the collector (the daemon embeds a warehouse)
// and the file name is part of the documented on-disk contract.
const collectorStateFile = "collector.state.jsonl"

// Discover walks root and returns the catalog's candidate store files
// as sorted slash-separated paths relative to root. Hidden files and
// directories (dot-prefixed), the warehouse's own index file, and the
// collector's control-state journal are skipped; everything else with a
// store extension is a candidate — each file is one run.
func Discover(root string) ([]string, error) {
	var out []string
	err := filepath.WalkDir(root, func(p string, d fs.DirEntry, werr error) error {
		if werr != nil {
			return werr
		}
		name := d.Name()
		if d.IsDir() {
			if p != root && strings.HasPrefix(name, ".") {
				return fs.SkipDir
			}
			return nil
		}
		if strings.HasPrefix(name, ".") || name == IndexFile || name == collectorStateFile {
			return nil
		}
		if !storeExts[strings.ToLower(filepath.Ext(name))] {
			return nil
		}
		rel, rerr := filepath.Rel(root, p)
		if rerr != nil {
			return rerr
		}
		out = append(out, filepath.ToSlash(rel))
		return nil
	})
	if err != nil {
		return nil, fmt.Errorf("warehouse: discovering %s: %w", root, err)
	}
	sort.Strings(out)
	return out, nil
}
