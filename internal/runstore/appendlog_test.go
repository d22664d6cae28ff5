package runstore

import (
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// TestFailedAppendPoisonsJournal is the fail-stop regression test for
// both journals: after a Write or Sync fails the handle must stay
// failed — even once the fault is gone — because a later successful
// append would bury the failed one's torn bytes as a corrupt interior
// record. Nothing from the failed call may be indexed, and reopening the
// file must serve exactly the acknowledged records.
func TestFailedAppendPoisonsJournal(t *testing.T) {
	a := map[string]string{"f": "x"}
	acked := []Record{
		rec("e", 0, 0, a, map[string]float64{"ms": 1}),
		rec("e", 0, 1, a, map[string]float64{"ms": 2}),
	}
	late := []Record{
		rec("e", 0, 2, a, map[string]float64{"ms": 3}),
		rec("e", 0, 3, a, map[string]float64{"ms": 4}),
	}
	type journal interface {
		Store
		BatchAppender
		Len() int
	}
	for _, tc := range []struct {
		name string
		open func(path string) (journal, *appendLog, error)
	}{
		{"jsonl", func(path string) (journal, *appendLog, error) {
			j, err := Open(path)
			if err != nil {
				return nil, nil, err
			}
			return j, &j.appendLog, nil
		}},
		{"binary", func(path string) (journal, *appendLog, error) {
			j, err := OpenBinary(path)
			if err != nil {
				return nil, nil, err
			}
			return j, &j.appendLog, nil
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "j")
			j, log, err := tc.open(path)
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			if err := j.AppendBatch(acked); err != nil {
				t.Fatal(err)
			}

			// The fault: a descriptor that cannot be written to.
			good := log.f
			ro, err := os.Open(path)
			if err != nil {
				t.Fatal(err)
			}
			log.f = ro
			first := j.AppendBatch(late)
			if first == nil {
				t.Fatal("AppendBatch through a read-only descriptor succeeded")
			}
			if !strings.Contains(first.Error(), "must be reopened") {
				t.Errorf("failure does not say what to do about it: %v", first)
			}

			// The fault clears; the journal must not.
			ro.Close()
			log.f = good
			if err := j.Append(late[0]); !errors.Is(err, first) {
				t.Errorf("Append after a failed batch = %v, want the first failure", err)
			}
			if err := j.AppendBatch(late); !errors.Is(err, first) {
				t.Errorf("AppendBatch after a failed batch = %v, want the first failure", err)
			}
			if j.Len() != len(acked) {
				t.Errorf("journal serves %d record(s), want only the %d acknowledged", j.Len(), len(acked))
			}
			if _, ok := j.Lookup("e", AssignmentHash(a), 2); ok {
				t.Error("a record of the failed batch is served by Lookup")
			}
			j.Close()

			again, _, err := tc.open(path)
			if err != nil {
				t.Fatalf("reopen after a poisoned journal: %v", err)
			}
			defer again.Close()
			if again.Len() != len(acked) {
				t.Fatalf("reopened journal holds %d record(s), want exactly the %d acknowledged", again.Len(), len(acked))
			}
			if err := again.AppendBatch(late); err != nil {
				t.Fatalf("append after reopening: %v", err)
			}
		})
	}
}
