// Package soaktest is the collector's fault-injection harness: a
// restartable in-process daemon pinned to a stable address, plus the
// chaos injectors the soak test aims at it — daemon kill/restart cycles,
// torn connections, and 429 storms (a tiny ingest budget, spent by a held
// ingest). The soak
// itself lives in this package's test files and asserts the hardening
// contract end to end: whatever the fault schedule, the merged and
// compacted collector store is byte-identical to a single-process run.
//
// Run it with `make soak` (full schedule) or `make soak-short` (the
// ~seconds CI smoke); both run under the race detector.
package soaktest

import (
	"bufio"
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"strings"
	"sync"
	"time"

	"repro/internal/collector"
)

// Daemon is a collector served over real TCP at an address that
// survives restarts: Stop severs every live connection and closes the
// collector (as much of a crash as an in-process daemon can stage while
// still letting the test rebind the port), and Start brings a fresh
// incarnation up on the same address and the same directory, so clients
// holding the old URL reconnect into the replayed control state.
type Daemon struct {
	cfg  collector.Config
	addr string

	mu  sync.Mutex
	srv *collector.Server
	hs  *http.Server
}

// NewDaemon starts the first incarnation on a fresh loopback port.
func NewDaemon(cfg collector.Config) (*Daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, fmt.Errorf("soaktest: %w", err)
	}
	d := &Daemon{cfg: cfg, addr: ln.Addr().String()}
	if err := d.serve(ln); err != nil {
		ln.Close()
		return nil, err
	}
	return d, nil
}

// Addr is the daemon's host:port — fixed for the Daemon's lifetime.
func (d *Daemon) Addr() string { return d.addr }

// URL is the base URL clients dial; it stays valid across restarts.
func (d *Daemon) URL() string { return "http://" + d.addr }

func (d *Daemon) serve(ln net.Listener) error {
	srv, err := collector.New(d.cfg)
	if err != nil {
		return fmt.Errorf("soaktest: %w", err)
	}
	hs := &http.Server{Handler: srv}
	d.mu.Lock()
	d.srv, d.hs = srv, hs
	d.mu.Unlock()
	go hs.Serve(ln)
	return nil
}

// Stop kills the current incarnation: the listener and every live
// connection are closed immediately (in-flight requests see a torn
// response, exactly like a daemon crash), then the collector is closed
// so its journals and control state are flushed. Safe to call twice.
func (d *Daemon) Stop() error {
	d.mu.Lock()
	srv, hs := d.srv, d.hs
	d.srv, d.hs = nil, nil
	d.mu.Unlock()
	if hs == nil {
		return nil
	}
	hs.Close()
	return srv.Close()
}

// Start brings a new incarnation up on the same address and directory.
// The port was just released by Stop, so the bind is retried briefly.
func (d *Daemon) Start() error {
	var ln net.Listener
	var err error
	deadline := time.Now().Add(5 * time.Second)
	for {
		ln, err = net.Listen("tcp", d.addr)
		if err == nil {
			break
		}
		if time.Now().After(deadline) {
			return fmt.Errorf("soaktest: rebinding %s: %w", d.addr, err)
		}
		time.Sleep(10 * time.Millisecond)
	}
	if err := d.serve(ln); err != nil {
		ln.Close()
		return err
	}
	return nil
}

// Restart is one chaos cycle: kill, stay dark for downFor (clients see
// connection refused, not hangs), then come back on the same address.
func (d *Daemon) Restart(downFor time.Duration) error {
	if err := d.Stop(); err != nil {
		return err
	}
	time.Sleep(downFor)
	return d.Start()
}

// HoldIngest spends an experiment's whole ingest budget and keeps it
// spent: it opens an ingest under lease that declares a body of declared
// bytes, waits until the daemon has admitted it (the daemon asks for the
// body with a 100 Continue only after it has reserved the declared
// bytes), and sends part of one record. While it is held every other
// ingest of the experiment is refused with 429 whenever declared
// exceeds the daemon's budget. tear cuts the connection mid-record, so
// no record of it lands and the reserve is released.
func HoldIngest(addr, lease, token string, declared int) (tear func(), err error) {
	conn, err := net.DialTimeout("tcp", addr, time.Second)
	if err != nil {
		return nil, fmt.Errorf("soaktest: %w", err)
	}
	fmt.Fprintf(conn, "POST %s?lease=%s HTTP/1.1\r\nHost: soak\r\nAuthorization: Bearer %s\r\n"+
		"Content-Length: %d\r\nExpect: 100-continue\r\n\r\n", collector.PathIngest, lease, token, declared)
	status, err := bufio.NewReader(conn).ReadString('\n')
	if err != nil || !strings.HasPrefix(status, "HTTP/1.1 100 ") {
		conn.Close()
		return nil, fmt.Errorf("soaktest: held ingest not admitted: %q, %v", status, err)
	}
	io.WriteString(conn, `{"experiment":`)
	return func() { conn.Close() }, nil
}

// TornConnections aims malformed and prematurely-severed HTTP traffic
// at addr until ctx is done: requests torn mid-line, bodies shorter
// than their declared Content-Length, and ingest streams cut mid-JSON.
// The daemon must shrug all of it off — no wedged handlers, no leaked
// admission budget. Dial failures while the daemon is dark are part of
// the schedule and are skipped, not counted. Returns the number of torn
// connections actually delivered.
func TornConnections(ctx context.Context, addr string, every time.Duration) int {
	payloads := []string{
		"POST /v1/ing",
		"POST " + collector.PathIngest + "?lease=lease-999-999 HTTP/1.1\r\nHost: soak\r\nContent-Length: 1048576\r\n\r\n{\"experiment\":",
		"POST " + collector.PathRegister + " HTTP/1.1\r\nHost: soak\r\nContent-Length: 64\r\n\r\n{\"worker\":\"to",
		"GET " + collector.PathStatus + " HTTP/1.1\r\nHost",
	}
	delivered := 0
	for i := 0; ; i++ {
		select {
		case <-ctx.Done():
			return delivered
		case <-time.After(every):
		}
		conn, err := net.DialTimeout("tcp", addr, time.Second)
		if err != nil {
			continue // daemon is dark: the restart injector's window
		}
		io.WriteString(conn, payloads[i%len(payloads)])
		conn.Close()
		delivered++
	}
}
