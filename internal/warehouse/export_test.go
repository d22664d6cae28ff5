package warehouse

import "testing"

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
