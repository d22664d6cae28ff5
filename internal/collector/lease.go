package collector

import (
	"encoding/json"
	"fmt"
	"math"
	"net/http"
	"time"
)

// handleAcquire grants a shard lease on one experiment:
//
//	200 AcquireResponse — a free (or expired-and-reclaimed) shard,
//	    leased to the caller for the server's TTL
//	204 — every shard of the experiment is complete; the worker drains
//	409 + Retry-After — all remaining shards are leased right now; retry
//
// A request that carries wait_ms is not answered 409 at once: it is held
// until the experiment's pool changes under it (a release, an expiry,
// the last completion), and 409 is what it gets only when
// wait_ms runs out first or the daemon begins to close. A held request
// writes nothing to the control-state journal; the grant that ends it
// does.
//
// The worker must then fetch the shard's warm-start snapshot
// (PathSnapshot) so records a previous owner already collected replay
// instead of re-executing.
func (s *Server) handleAcquire(w http.ResponseWriter, r *http.Request) {
	var req AcquireRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("collector: bad acquire request: %v", err))
		return
	}
	if req.Experiment == "" {
		writeError(w, http.StatusBadRequest, "collector: acquire needs an experiment name")
		return
	}
	// Clamped so that the conversion below cannot overflow.
	wait := time.Duration(min(max(req.WaitMillis, 0), math.MaxInt64/int64(time.Millisecond))) * time.Millisecond
	asked := time.Now()
	var timer *time.Timer // set once the request has been held
	answered := func(outcome string) {
		if timer == nil {
			return
		}
		timer.Stop()
		d := time.Since(asked)
		s.met.acquireHeld.Observe(d.Seconds())
		s.log.Debug("held acquire answered", "worker", req.Worker,
			"experiment", req.Experiment, "outcome", outcome, "held", d)
	}
	for {
		now := s.cfg.Clock()
		s.mu.Lock()
		e, err := s.experimentLocked(req.Experiment)
		if err != nil {
			s.mu.Unlock()
			writeError(w, http.StatusInternalServerError, err.Error())
			return
		}
		if timer == nil && req.Worker != "" {
			s.registerLocked(req.Worker)
		}
		s.sweepLocked(e, now)
		free, done := -1, 0
		var expiry time.Time // the earliest among the live leases
		for i, sh := range e.shards {
			switch sh.state {
			case shardFree:
				if free < 0 {
					free = i
				}
			case shardDone:
				done++
			case shardLeased:
				if expiry.IsZero() || sh.l.expires.Before(expiry) {
					expiry = sh.l.expires
				}
			}
		}
		if free >= 0 {
			resp := s.grantLocked(e, free, req.Worker, now)
			s.mu.Unlock()
			answered("granted")
			writeJSON(w, http.StatusOK, resp)
			return
		}
		if done == len(e.shards) {
			s.mu.Unlock()
			answered("complete")
			w.WriteHeader(http.StatusNoContent)
			return
		}
		left := wait - time.Since(asked)
		if left <= 0 || s.closed {
			s.mu.Unlock()
			answered("busy")
			retryAfterHeader(w, s.cfg.RetryAfter)
			writeError(w, http.StatusConflict,
				fmt.Sprintf("collector: %s: all %d incomplete shard(s) are leased", e.name, len(e.shards)-done))
			return
		}
		changed := e.changedLocked()
		s.mu.Unlock()

		// Held. Every shard that is not done is leased, so a live lease
		// exists and its expiry bounds the hold even if no other request
		// ever arrives to run the (lazy) sweep. An expiry the clock says
		// is due but the sweep did not take — it frees a lease only
		// strictly after its deadline — must not spin.
		hold := min(left, max(expiry.Sub(now), time.Millisecond))
		if timer == nil {
			timer = time.NewTimer(hold)
			s.log.Debug("acquire held", "worker", req.Worker,
				"experiment", req.Experiment, "wait", wait)
		} else {
			timer.Reset(hold)
		}
		select {
		case <-changed:
		case <-timer.C:
		case <-s.closing:
		case <-r.Context().Done():
			// The client went away; there is nobody to answer.
			answered("abandoned")
			return
		}
	}
}

// grantLocked leases shard i of e to worker and journals the grant.
// Callers hold s.mu.
func (s *Server) grantLocked(e *experiment, i int, worker string, now time.Time) AcquireResponse {
	s.seq++
	l := &lease{
		id:      leaseID(s.epoch, s.seq),
		exp:     e,
		shard:   i,
		worker:  worker,
		expires: now.Add(s.cfg.LeaseTTL),
	}
	e.shards[i] = shardState{state: shardLeased, l: l}
	e.leases[l.id] = l
	s.met.leaseAcquired.Inc()
	s.persist(stateEvent{Type: "acquire", Lease: l.id, Worker: l.worker,
		Experiment: e.name, Shard: l.shard, ExpiresMS: l.expires.UnixMilli()})
	s.log.Info("lease granted", "lease", l.id, "worker", l.worker,
		"experiment", e.name, "shard", l.shard, "shards", len(e.shards))
	return AcquireResponse{
		Lease:     l.id,
		Shard:     l.shard,
		Shards:    len(e.shards),
		TTLMillis: s.cfg.LeaseTTL.Milliseconds(),
	}
}

// leaseFail classifies a lease id that did not resolve to a live lease.
// An id minted by an earlier daemon incarnation answers 409 with the
// HeaderStaleLease marker — the "stale epoch" signal: the daemon
// restarted and did not resume this lease, so its holder must
// re-acquire, not retry. Anything else — current-epoch ids the TTL
// sweep reclaimed, ids never granted — stays the protocol's 410 Gone.
// s.epoch is fixed at New, so no lock is needed.
func (s *Server) leaseFail(w http.ResponseWriter, id string) (status int, msg string) {
	if epoch := leaseEpoch(id); epoch > 0 && epoch < s.epoch {
		w.Header().Set(HeaderStaleLease, "1")
		return http.StatusConflict, fmt.Sprintf(
			"collector: lease %s is from epoch %d; this daemon is epoch %d (restarted) — re-acquire", id, epoch, s.epoch)
	}
	return http.StatusGone, fmt.Sprintf("collector: lease %s is not live (expired or never granted)", id)
}

// handleRenew extends a live lease by the TTL. A lease the sweep has
// already reclaimed answers 410 Gone: the worker has lost the shard and
// must stop streaming — its local journal stays valid, and whatever it
// already ingested warm-starts the next owner.
func (s *Server) handleRenew(w http.ResponseWriter, r *http.Request) {
	var req RenewRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("collector: bad renew request: %v", err))
		return
	}
	now := s.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leaseLocked(req.Lease, now)
	if !ok {
		status, msg := s.leaseFail(w, req.Lease)
		writeError(w, status, msg)
		return
	}
	l.expires = now.Add(s.cfg.LeaseTTL)
	s.met.leaseRenewed.Inc()
	s.persist(stateEvent{Type: "renew", Lease: l.id, ExpiresMS: l.expires.UnixMilli()})
	s.log.Debug("lease renewed", "lease", l.id, "worker", l.worker)
	writeJSON(w, http.StatusOK, RenewResponse{TTLMillis: s.cfg.LeaseTTL.Milliseconds()})
}

// handleRelease returns a shard: complete (it leaves the pool — the
// normal end of a fully executed shard) or abandoned (back to the free
// pool, warm, for another worker). Releasing a dead lease is 410, like
// renew.
func (s *Server) handleRelease(w http.ResponseWriter, r *http.Request) {
	var req ReleaseRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("collector: bad release request: %v", err))
		return
	}
	now := s.cfg.Clock()
	s.mu.Lock()
	defer s.mu.Unlock()
	l, ok := s.leaseLocked(req.Lease, now)
	if !ok {
		status, msg := s.leaseFail(w, req.Lease)
		writeError(w, status, msg)
		return
	}
	state := shardFree
	if req.Complete {
		state = shardDone
	}
	l.exp.shards[l.shard] = shardState{state: state}
	delete(l.exp.leases, l.id)
	l.exp.poolChangedLocked()
	s.met.leaseReleased.Inc()
	s.persist(stateEvent{Type: "release", Lease: l.id, Complete: req.Complete})
	s.log.Info("lease released", "lease", l.id, "worker", l.worker,
		"experiment", l.exp.name, "shard", l.shard, "complete", req.Complete)
	w.WriteHeader(http.StatusNoContent)
}
