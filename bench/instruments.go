package main

import (
	"context"
	"iter"
	"net/http"
	"runtime/metrics"
	"strconv"
	"strings"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/collector"
	"repro/internal/design"
	"repro/internal/harness"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// Every instrument here sits in the benchmark, around a public seam of
// the product: nothing under internal/ knows it is being timed.

// spanKey carries the causing span's id through a context, so a span
// opened deep inside product code (an HTTP round trip inside
// client.Worker.Execute) still names its parent.
type spanKey struct{}

func withSpan(ctx context.Context, id int32) context.Context {
	return context.WithValue(ctx, spanKey{}, id)
}

func spanFrom(ctx context.Context) int32 {
	id, _ := ctx.Value(spanKey{}).(int32)
	return id
}

// spanHeader carries the client-side span id to the daemon, so the
// handler's span names the round trip that caused it.
const spanHeader = "X-Bench-Span"

// timedStore decorates a runstore.Store. Every return from Append is one
// more durable record: the interval since the previous one is the
// closed-loop operation's latency (see meter.tick). On traced
// repetitions Append and Lookup are spans under parent.
type timedStore struct {
	inner  runstore.Store
	m      *meter
	parent int32
}

func (s *timedStore) Append(rec runstore.Record) error {
	_, err := s.m.timed("runstore.append", s.parent, func() error { return s.inner.Append(rec) })
	s.m.tick()
	return err
}

func (s *timedStore) Lookup(experiment, hash string, replicate int) (runstore.Record, bool) {
	id := s.m.tr.begin("runstore.lookup", s.parent)
	rec, ok := s.inner.Lookup(experiment, hash, replicate)
	s.m.tr.end(id)
	return rec, ok
}

func (s *timedStore) ReplicateCount(experiment, hash string) int {
	return s.inner.ReplicateCount(experiment, hash)
}
func (s *timedStore) Scan() iter.Seq2[runstore.Record, error] { return s.inner.Scan() }
func (s *timedStore) Close() error                            { return s.inner.Close() }

// tracedRunner decorates the synthetic runner with a harness.runner span
// under parent. Untraced repetitions run the bare runner.
func tracedRunner(m *meter, parent int32) func(harness.RunFunc) harness.RunFunc {
	if m.tr == nil {
		return nil
	}
	return func(run harness.RunFunc) harness.RunFunc {
		return func(a design.Assignment, rep int) (map[string]float64, error) {
			id := m.tr.begin("harness.runner", parent)
			resp, err := run(a, rep)
			m.tr.end(id)
			return resp, err
		}
	}
}

// timedTransport is the http.RoundTripper handed to the collector
// client. An ingest round trip is a client.http_ingest span, every other
// request a client.http_lease span. Responses that the client would have
// to retry are counted.
type timedTransport struct {
	inner   http.RoundTripper
	m       *meter
	refused *atomic.Int64 // 429 and 5xx answers
}

func (t *timedTransport) RoundTrip(req *http.Request) (*http.Response, error) {
	name := "client.http_lease"
	if req.URL.Path == collector.PathIngest {
		name = "client.http_ingest"
	}
	id := t.m.tr.begin(name, spanFrom(req.Context()))
	if id != 0 {
		req = req.Clone(req.Context())
		req.Header.Set(spanHeader, strconv.Itoa(int(id)))
	}
	resp, err := t.inner.RoundTrip(req)
	t.m.tr.end(id)
	if err == nil && (resp.StatusCode == http.StatusTooManyRequests || resp.StatusCode >= 500) {
		t.refused.Add(1)
	}
	return resp, err
}

// tracedHandler wraps the daemon's handler on traced repetitions: one
// collector.handle_ingest or collector.handle_lease span per request,
// parented on the client round trip named in the request header.
func tracedHandler(m *meter, next http.Handler) http.Handler {
	if m.tr == nil {
		return next
	}
	return http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		name := "collector.handle_lease"
		if r.URL.Path == collector.PathIngest {
			name = "collector.handle_ingest"
		}
		parent, _ := strconv.Atoi(r.Header.Get(spanHeader))
		id := m.tr.begin(name, int32(parent))
		next.ServeHTTP(w, r)
		m.tr.end(id)
	})
}

// counters reads a registry into name → value (a histogram reads as its
// sum). Registries are the product's own instruments: a private one per
// repetition for collector and client, the process default for runstore.
func counters(reg *obs.Registry) map[string]float64 {
	out := map[string]float64{}
	for _, m := range reg.Snapshot().Metrics {
		if m.Type == "histogram" {
			out[m.Name] = m.Sum
		} else {
			out[m.Name] = m.Value
		}
	}
	return out
}

// delta is after − before, per name.
func delta(before, after map[string]float64) map[string]float64 {
	out := map[string]float64{}
	for name, v := range after {
		out[name] = v - before[name]
	}
	return out
}

// processMeter snapshots what the whole process spent: CPU from rusage,
// allocation and GC cycles from runtime/metrics.
type processMeter struct {
	cpu    time.Duration
	allocs uint64
	gcs    uint64
}

func readProcess() processMeter {
	var ru syscall.Rusage
	var p processMeter
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err == nil {
		p.cpu = time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
	}
	s := []metrics.Sample{{Name: "/gc/heap/allocs:bytes"}, {Name: "/gc/cycles/total:gc-cycles"}}
	metrics.Read(s)
	if s[0].Value.Kind() == metrics.KindUint64 {
		p.allocs = s[0].Value.Uint64()
	}
	if s[1].Value.Kind() == metrics.KindUint64 {
		p.gcs = s[1].Value.Uint64()
	}
	return p
}

// fsType names the filesystem holding dir — fsync cost, and with it
// every write-path number here, depends on it.
func fsType(dir string) string {
	var st syscall.Statfs_t
	if err := syscall.Statfs(dir, &st); err != nil {
		return "unknown"
	}
	switch uint32(st.Type) {
	case 0xEF53:
		return "ext2/3/4"
	case 0x01021994:
		return "tmpfs"
	case 0x794c7630:
		return "overlayfs"
	case 0x58465342:
		return "xfs"
	case 0x9123683E:
		return "btrfs"
	case 0x6969:
		return "nfs"
	}
	return "0x" + strings.ToLower(strconv.FormatInt(int64(st.Type), 16))
}
