package collector

import (
	"errors"
	"fmt"
	"io"
	"mime"
	"net/http"

	"repro/internal/runstore"
)

// handleIngest streams one batch of records into the lease's shard:
//
//	200 IngestResponse — every record in the batch is durably appended
//	410 — the lease is not live; the worker must stop streaming
//	429 + Retry-After — the experiment's in-flight byte budget is full
//	409 — a record does not belong to the lease (wrong experiment, or
//	      routed to another shard): a worker-side sharding bug that must
//	      fail loudly before it overlaps another worker's data
//	400 — a malformed or truncated stream
//	503 + Retry-After — the server could not store the batch: either it
//	      is shutting down, or the append/fsync itself failed (disk full,
//	      store closed). The batch is well-formed and the store is
//	      last-wins, so the client retries idempotently
//
// Records are validated in stream order and the valid prefix is
// committed as one unit, so a failed batch leaves a clean prefix durably
// stored; delivery is at-least-once and the stores are last-wins, so a
// retried batch converges instead of duplicating.
//
// The body framing is negotiated by Content-Type: runstore.WireBinaryType
// selects the binary frame decoder, anything else — including no header
// at all — is decoded as NDJSON, the canonical fallback every peer
// speaks (docs/COLLECTOR.md).
func (s *Server) handleIngest(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("lease")
	now := s.cfg.Clock()
	s.mu.Lock()
	// The closed check must precede any committer or submitter-group
	// touch: Close flips closed under this lock and then waits the
	// submitter group out, so an ingest that got the lock after Close
	// must not Add to the group (Add-after-Wait misuse), send on a
	// commit channel Close is about to close, or lazily start a new
	// committer Close will never drain. It answers 503 — retryable —
	// because the worker's next attempt lands on the restarted daemon.
	if s.closed {
		s.mu.Unlock()
		retryAfterHeader(w, s.cfg.RetryAfter)
		writeError(w, http.StatusServiceUnavailable, "collector: server is shutting down")
		return
	}
	l, ok := s.leaseLocked(id, now)
	if !ok {
		status, msg := s.leaseFail(w, id)
		s.mu.Unlock()
		writeError(w, status, msg)
		return
	}
	e := l.exp
	// Backpressure admission: reserve the declared body size against the
	// experiment's in-flight budget. An idle experiment always admits —
	// progress must stay possible whatever MaxInflight is — but a busy
	// one refuses what would overflow, and the client backs off by the
	// Retry-After hint.
	reserve := r.ContentLength
	if reserve < 0 {
		reserve = 0
	}
	if e.inflight > 0 && e.inflight+reserve > s.cfg.MaxInflight {
		inflight := e.inflight
		s.mu.Unlock()
		s.met.ingestReject.Inc()
		s.log.Debug("ingest backpressured", "experiment", e.name,
			"inflight", inflight, "declared", reserve)
		retryAfterHeader(w, s.cfg.RetryAfter)
		writeError(w, http.StatusTooManyRequests,
			fmt.Sprintf("collector: %s: ingest budget full (%d in-flight byte(s))", e.name, inflight))
		return
	}
	e.inflight += reserve
	if e.committers[l.shard] == nil {
		e.committers[l.shard] = newCommitter(e.store, s.met)
	}
	// Entering the submitter group under the lock pairs with Close,
	// which flips closed first and then waits the group out — so a
	// commit channel is never closed mid-send.
	e.submits.Add(1)
	defer e.submits.Done()
	shard, shards := l.shard, len(e.shards)
	s.mu.Unlock()
	s.met.inflightBytes.Add(reserve)
	// The reserve must be released exactly once on every exit path —
	// decode error, commit error, conflict, success. A released that runs
	// twice (or a path that forgets it) drifts the gauge and, once
	// negative, jams admission open; hence one sync.Once-style closure
	// rather than per-path arithmetic, and a regression test pinning the
	// gauge back at zero after a torn body.
	released := false
	release := func() {
		if released {
			return
		}
		released = true
		s.met.inflightBytes.Add(-reserve)
		s.mu.Lock()
		e.inflight -= reserve
		s.mu.Unlock()
	}
	defer release()

	// Decode outside the control-state lock: the batch is validated and
	// gathered first, then submitted to the shard's committer as one unit.
	decode := runstore.DecodeWire
	if wireMediaType(r.Header.Get("Content-Type")) == runstore.WireBinaryType {
		decode = runstore.DecodeWireBinary
	}
	body := &countingReader{r: r.Body}
	var batch []runstore.Record
	_, err := decode(body, func(rec runstore.Record) error {
		if rec.Experiment != e.name {
			return &ingestConflict{fmt.Sprintf("collector: record %s belongs to experiment %q, lease %s owns %q",
				rec.Key(), rec.Experiment, id, e.name)}
		}
		if got := runstore.ShardIndex(rec.Hash, shards); got != shard {
			return &ingestConflict{fmt.Sprintf("collector: record %s routes to shard %d, lease %s owns shard %d of %d",
				rec.Key(), got, id, shard, shards)}
		}
		batch = append(batch, rec)
		return nil
	})
	// Commit the decoded records even when the stream failed partway:
	// the valid prefix lands durably, preserving the contract that a
	// failed batch leaves a clean prefix for the retry to converge on.
	n := len(batch)
	if cerr := e.commit(shard, batch); cerr != nil {
		if err == nil {
			err = &storeFailure{cerr}
		}
		n = 0
	}
	s.mu.Lock()
	e.records += int64(n)
	s.mu.Unlock()
	s.met.ingestRecords.Add(int64(n))
	s.met.ingestBytes.Add(body.n)
	release()
	if err != nil {
		var conflict *ingestConflict
		var failed *storeFailure
		switch {
		case errors.As(err, &conflict):
			writeError(w, http.StatusConflict, conflict.msg)
		case errors.As(err, &failed):
			// A server-side storage failure, not a bad request: 400 would
			// read as terminal and kill the worker's run over what may be a
			// transient disk or shutdown hiccup. 503 tells the client to
			// retry the (idempotent) batch.
			retryAfterHeader(w, s.cfg.RetryAfter)
			writeError(w, http.StatusServiceUnavailable, failed.Error())
		default:
			writeError(w, http.StatusBadRequest, err.Error())
		}
		return
	}
	writeJSON(w, http.StatusOK, IngestResponse{Appended: n})
}

// wireMediaType extracts the bare media type from a Content-Type or
// Accept header value, tolerating parameters and case per RFC 9110. An
// empty or unparsable value returns "" — which callers treat as "use
// the JSON default".
func wireMediaType(header string) string {
	mt, _, err := mime.ParseMediaType(header)
	if err != nil {
		return ""
	}
	return mt
}

// countingReader counts the bytes actually read from the request body —
// what the ingest byte counter reports, as opposed to the declared
// Content-Length the backpressure budget reserves.
type countingReader struct {
	r io.Reader
	n int64
}

func (c *countingReader) Read(p []byte) (int, error) {
	n, err := c.r.Read(p)
	c.n += int64(n)
	return n, err
}

// ingestConflict marks a record that does not belong to its lease — the
// one ingest failure that is a worker bug, not a transport hiccup, and
// so maps to 409 rather than 400.
type ingestConflict struct{ msg string }

func (c *ingestConflict) Error() string { return c.msg }

// storeFailure marks a group commit that failed server-side —
// the batch was well-formed but could not be made durable — and so maps
// to a retryable 503 rather than the terminal 400 a malformed stream
// earns.
type storeFailure struct{ err error }

func (f *storeFailure) Error() string {
	return fmt.Sprintf("collector: storing batch: %v", f.err)
}

func (f *storeFailure) Unwrap() error { return f.err }

// handleSnapshot streams the lease's shard as it stands — every record
// earlier owners collected — in the wire framing. It is the warm-start
// feed: the new owner indexes these records and replays them through
// the scheduler's journal warm-start machinery instead of re-executing
// them. The scan snapshots its key set at start (the runstore.Store
// contract), so concurrent ingest on other shards never corrupts it.
//
// The response framing is negotiated by the Accept header — an exact
// runstore.WireBinaryType selects binary frames, anything else NDJSON —
// and the response Content-Type states what was chosen, so a client
// decodes by what the server says, never by what it asked for.
func (s *Server) handleSnapshot(w http.ResponseWriter, r *http.Request) {
	id := r.URL.Query().Get("lease")
	now := s.cfg.Clock()
	s.mu.Lock()
	// Same pairing with Close as handleIngest: once closed is set the
	// stores are about to close under us, so refuse retryably instead of
	// streaming from a journal mid-teardown.
	if s.closed {
		s.mu.Unlock()
		retryAfterHeader(w, s.cfg.RetryAfter)
		writeError(w, http.StatusServiceUnavailable, "collector: server is shutting down")
		return
	}
	l, ok := s.leaseLocked(id, now)
	if !ok {
		status, msg := s.leaseFail(w, id)
		s.mu.Unlock()
		writeError(w, status, msg)
		return
	}
	store, shard, shards := l.exp.store, l.shard, len(l.exp.shards)
	s.mu.Unlock()

	encode := runstore.EncodeWire
	ctype := runstore.WireJSONType
	if wireMediaType(r.Header.Get("Accept")) == runstore.WireBinaryType {
		encode = runstore.EncodeWireBinary
		ctype = runstore.WireBinaryType
	}
	w.Header().Set("Content-Type", ctype)
	for rec, err := range store.Scan() {
		if err != nil {
			// The header is out; all we can do is cut the stream so the
			// truncation is visible to the client's wire decoder.
			return
		}
		if runstore.ShardIndex(rec.Hash, shards) != shard {
			continue
		}
		if err := encode(w, rec); err != nil {
			return
		}
	}
}
