// Internal-package tests for the control-state journal primitives and
// the Retry-After rounding — the pieces the HTTP-level tests exercise
// only indirectly.
package collector

import (
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

func TestLeaseIDRoundTrip(t *testing.T) {
	cases := []struct {
		id   string
		want int
	}{
		{leaseID(1, 1), 1},
		{leaseID(7, 200), 7},
		{"lease-12-3", 12},
		{"lease-3", 0},     // no sequence part
		{"lease-abc-3", 0}, // non-numeric epoch
		{"lease-0-3", 0},   // epochs start at 1
		{"lease--1-3", 0},  // negative
		{"run-1-3", 0},     // wrong prefix
		{"", 0},            // empty
		{"lease-1-2-3", 1}, // extra dashes stay in the sequence part
	}
	for _, tc := range cases {
		if got := leaseEpoch(tc.id); got != tc.want {
			t.Errorf("leaseEpoch(%q) = %d, want %d", tc.id, got, tc.want)
		}
	}
}

func TestStateLogTornTailTruncated(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StateFile)

	log, _, err := openStateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	events := []stateEvent{
		{Type: "epoch", Epoch: 1},
		{Type: "worker", Worker: "w1"},
		{Type: "acquire", Lease: "lease-1-1", Worker: "w1", Experiment: "e", Shard: 0, ExpiresMS: 5_000},
	}
	for _, ev := range events {
		if err := log.append(ev); err != nil {
			t.Fatal(err)
		}
	}
	if err := log.close(); err != nil {
		t.Fatal(err)
	}

	// A crash mid-append leaves a torn final line.
	f, err := os.OpenFile(path, os.O_WRONLY|os.O_APPEND, 0)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := f.WriteString(`{"type":"renew","lease":"lea`); err != nil {
		t.Fatal(err)
	}
	f.Close()
	before, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}

	log2, replayed, err := openStateLog(path)
	if err != nil {
		t.Fatalf("open with torn tail: %v", err)
	}
	defer log2.close()
	if len(replayed) != len(events) {
		t.Fatalf("replayed %d event(s), want %d (torn tail dropped)", len(replayed), len(events))
	}
	for i, ev := range replayed {
		if ev != events[i] {
			t.Errorf("event %d = %+v, want %+v", i, ev, events[i])
		}
	}
	after, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if after.Size() >= before.Size() {
		t.Errorf("torn tail not truncated: %d >= %d bytes", after.Size(), before.Size())
	}

	// Appends continue cleanly after recovery.
	if err := log2.append(stateEvent{Type: "release", Lease: "lease-1-1"}); err != nil {
		t.Fatal(err)
	}
	log2.close()
	_, replayed, err = openStateLog(path)
	if err != nil {
		t.Fatal(err)
	}
	if len(replayed) != len(events)+1 || replayed[len(replayed)-1].Type != "release" {
		t.Fatalf("post-recovery append lost: %+v", replayed)
	}
}

func TestStateLogCorruptMiddleLineRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StateFile)
	body := `{"type":"epoch","epoch":1}` + "\n" +
		`{"type":"worker","wor` + "\n" + // corrupt, but NOT the tail
		`{"type":"worker","worker":"w1"}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	_, _, err := openStateLog(path)
	if err == nil {
		t.Fatal("corrupt middle line accepted; dropping a lease grant mid-log must be an error")
	}
	if !strings.Contains(err.Error(), "corrupt line") {
		t.Fatalf("error %q does not name the corrupt line", err)
	}
}

func TestStateLogScannerFailureRejected(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, StateFile)
	// The frame log has no line-length cap: a line past 1 MiB is a line,
	// and the events after it replay (silently dropping a lease grant
	// would hand one shard to two workers).
	huge := strings.Repeat("x", (1<<20)+1024)
	body := `{"type":"epoch","epoch":1}` + "\n" +
		`{"type":"worker","worker":"` + huge + `"}` + "\n" +
		`{"type":"worker","worker":"w1"}` + "\n"
	if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
		t.Fatal(err)
	}
	log, events, err := openStateLog(path)
	if err != nil {
		t.Fatalf("open with a line past 1 MiB: %v", err)
	}
	defer log.close()
	want := []stateEvent{{Type: "epoch", Epoch: 1}, {Type: "worker", Worker: huge}, {Type: "worker", Worker: "w1"}}
	if len(events) != len(want) {
		t.Fatalf("replayed %d event(s), want %d", len(events), len(want))
	}
	for i, ev := range events {
		if ev != want[i] {
			t.Errorf("event %d = %.80v, want %.80v", i, ev, want[i])
		}
	}
}

func TestRetryAfterHeaderRounds(t *testing.T) {
	cases := []struct {
		d    time.Duration
		want string
	}{
		{0, "0"},
		{100 * time.Millisecond, "0"},
		{499 * time.Millisecond, "0"},
		{500 * time.Millisecond, "1"},
		{time.Second, "1"},
		{1400 * time.Millisecond, "1"},
		{1600 * time.Millisecond, "2"},
		{30 * time.Second, "30"},
	}
	for _, tc := range cases {
		w := httptest.NewRecorder()
		retryAfterHeader(w, tc.d)
		if got := w.Header().Get("Retry-After"); got != tc.want {
			t.Errorf("retryAfterHeader(%v) = %q, want %q", tc.d, got, tc.want)
		}
	}
}
