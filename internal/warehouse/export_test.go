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
