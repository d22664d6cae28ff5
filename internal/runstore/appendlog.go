package runstore

import (
	"fmt"
	"os"
)

// appendLog is the fail-stop file handle both journals append through.
// A commit is one Write followed by one Sync; the first failure of
// either poisons the handle, and every later commit returns that same
// error until the file is reopened. A short write leaves a torn tail
// that Open knows how to truncate — but only while it is the tail: a
// later successful append would bury it as a corrupt interior record,
// which Open rightly treats as fatal.
type appendLog struct {
	path   string
	f      *os.File // nil once closed
	failed error    // the first Write or Sync failure; sticky
}

// commit makes data, the encoding of n records, durable before it
// returns. Callers hold the journal's mutex and index the records only
// after a nil return, so nothing from a failed commit is ever served.
func (l *appendLog) commit(data []byte, n int) error {
	switch {
	case l.f == nil:
		return fmt.Errorf("runstore: journal %s is closed", l.path)
	case l.failed != nil:
		return l.failed
	}
	_, err := l.f.Write(data)
	if err == nil {
		err = l.f.Sync()
	}
	if err != nil {
		l.failed = fmt.Errorf("runstore: journal %s failed and must be reopened: %w", l.path, err)
		return l.failed
	}
	metAppends.Add(int64(n))
	metAppendBytes.Add(int64(len(data)))
	metFsyncs.Inc()
	return nil
}

// close closes the file; a second close is a no-op.
func (l *appendLog) close() error {
	if l.f == nil {
		return nil
	}
	err := l.f.Close()
	l.f = nil
	return err
}
