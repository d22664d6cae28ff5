package framelog

// SetDirSynced installs fn as the hook SyncDir reports to, and returns
// the call that removes it.
func SetDirSynced(fn func(dir string)) (restore func()) {
	dirSynced = fn
	return func() { dirSynced = nil }
}
