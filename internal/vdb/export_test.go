package vdb

import (
	"sync/atomic"
	"testing"
)

// countWidthBytes counts every Column.WidthBytes call until the test ends.
// The hook is package state: a test that counts must not run in parallel.
func countWidthBytes(t testing.TB) *atomic.Int64 {
	t.Helper()
	var n atomic.Int64
	widthBytesHook = func() { n.Add(1) }
	t.Cleanup(func() { widthBytesHook = nil })
	return &n
}
