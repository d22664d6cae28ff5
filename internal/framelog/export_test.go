package framelog

import "os"

// SetDirSynced installs fn as the hook SyncDir reports to, and returns
// the call that removes it.
func SetDirSynced(fn func(dir string)) (restore func()) {
	dirSynced = fn
	return func() { dirSynced = nil }
}

// SetCommitSync installs fn in place of the sync a Commit makes on the
// descriptor it was given, and returns the call that removes it.
func SetCommitSync(fn func(f *os.File) error) (restore func()) {
	commitSync = fn
	return func() { commitSync = nil }
}
