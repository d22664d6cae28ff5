package warehouse

import (
	"bytes"
	"fmt"
	"os"
	"testing"
)

// Root returns the directory the warehouse catalogs.
func (w *Warehouse) Root() string { return w.root }

// countHistoryReads counts the cells every history pass reads, in total,
// until the test ends. The hook is package state: a test that counts must
// not run in parallel.
func countHistoryReads(t testing.TB) *int {
	t.Helper()
	var n int
	historyReads = func(cells int) { n += cells }
	t.Cleanup(func() { historyReads = nil })
	return &n
}

// identityCounts is what the index replay did to find its cells'
// identities beyond predicting them.
type identityCounts struct{ searches, walks int }

// countIdentitySteps counts the identity spans the index replay searches
// for and walks, in total, until the test ends. Like countHistoryReads it
// sets package state: a test that counts must not run in parallel.
func countIdentitySteps(t testing.TB) *identityCounts {
	t.Helper()
	var n identityCounts
	identitySteps = func(walked bool) {
		if walked {
			n.walks++
		} else {
			n.searches++
		}
	}
	t.Cleanup(func() { identitySteps = nil })
	return &n
}

// Torn reports whether a torn trailing frame was truncated on open.
func (x *index) Torn() bool { return x.log.Torn() }

// readFrames decodes every frame of an index file image through the
// scan Open uses, reporting the intact run view and whether a torn tail
// follows it. InspectIndex reads through it, and the fuzz target drives
// the decoder through it.
func readFrames(data []byte) (map[string]Run, bool, error) {
	runs := make(map[string]Run)
	_, torn, err := indexFraming.ScanFile(bytes.NewReader(data), collectRuns(runs, nil))
	if err != nil {
		return nil, false, err
	}
	return runs, torn, nil
}

// InspectIndex reports the shape of an index file without opening it
// for writing: run and tombstone counts and whether the tail was torn.
// The index, golden and property tests read an index file through it.
func InspectIndex(path string) (runs, pruned int, torn bool, err error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return 0, 0, false, fmt.Errorf("warehouse: %w", err)
	}
	view, torn, err := readFrames(data)
	if err != nil {
		return 0, 0, false, fmt.Errorf("warehouse: %s: %w", path, err)
	}
	for _, r := range view {
		if r.Pruned {
			pruned++
		}
	}
	return len(view), pruned, torn, nil
}
