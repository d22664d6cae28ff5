package collector

import (
	"encoding/json"
	"fmt"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/framelog"
)

// StateFile is the daemon's control-state journal, kept next to the
// collected stores in Config.Dir. It records worker registrations and
// the lease lifecycle so a restarted daemon resumes where the old one
// stopped instead of orphaning its fleet.
const StateFile = "collector.state.jsonl"

// stateEvent is one line of the control-state journal: a line-framed
// framelog file (one JSON object per line, a single Write+Sync per
// append, torn trailing line truncated on open, fail-stop after a failed
// append). Event types:
//
//	epoch   — a daemon started; Epoch is its (monotonic) incarnation
//	worker  — a worker registered
//	acquire — a lease was granted (Lease, Worker, Experiment, Shard,
//	          ExpiresMS absolute unix-milli deadline)
//	renew   — a live lease's deadline moved (Lease, ExpiresMS)
//	release — a lease was returned; Complete marks the shard done
//	expire  — the TTL sweep reclaimed a lease
type stateEvent struct {
	Type       string `json:"type"`
	Epoch      int    `json:"epoch,omitempty"`
	Worker     string `json:"worker,omitempty"`
	Lease      string `json:"lease,omitempty"`
	Experiment string `json:"experiment,omitempty"`
	Shard      int    `json:"shard,omitempty"`
	ExpiresMS  int64  `json:"expires_ms,omitempty"`
	Complete   bool   `json:"complete,omitempty"`
}

// stateLog is the append side of the control-state journal. Appends are
// control-plane traffic (registrations, lease transitions) — a few per
// worker per TTL — so the per-append fsync that makes them durable never
// contends with the ingest hot path.
type stateLog struct {
	mu  sync.Mutex
	log *framelog.Log
}

// openStateLog opens (creating if absent) the control-state journal and
// returns every complete event in file order. A torn trailing line — a
// daemon crash mid-append — is truncated, exactly as runstore.Open
// recovers a record journal; a corrupt line anywhere else is an error,
// because silently dropping a lease grant would hand one shard to two
// workers.
func openStateLog(path string) (*stateLog, []stateEvent, error) {
	var events []stateEvent
	log, err := framelog.Open(path, framelog.Lines, func(line []byte, off, _ int64) error {
		var ev stateEvent
		if err := json.Unmarshal(line, &ev); err != nil {
			return framelog.Corrupt(fmt.Errorf("corrupt line at byte %d: %w", off, err))
		}
		events = append(events, ev)
		return nil
	})
	if err != nil {
		return nil, nil, fmt.Errorf("collector: state: %w", err)
	}
	return &stateLog{log: log}, events, nil
}

// append persists one event, durably before it returns.
func (s *stateLog) append(ev stateEvent) error {
	line, err := json.Marshal(ev)
	if err != nil {
		return fmt.Errorf("collector: state: %w", err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Commit(framelog.Lines.Seal(line, 0))
}

func (s *stateLog) close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.log.Close()
}

// leaseID builds a lease id carrying the granting daemon's epoch —
// "lease-<epoch>-<seq>" — so a lease from a previous incarnation is
// recognizable on sight and two daemons never mint colliding ids even
// though the per-epoch sequence restarts at 1.
func leaseID(epoch, seq int) string {
	return "lease-" + strconv.Itoa(epoch) + "-" + strconv.Itoa(seq)
}

// leaseEpoch extracts the epoch from a lease id, or 0 when the id does
// not carry one (including ids minted before epochs existed).
func leaseEpoch(id string) int {
	rest, ok := strings.CutPrefix(id, "lease-")
	if !ok {
		return 0
	}
	epochStr, _, ok := strings.Cut(rest, "-")
	if !ok {
		return 0
	}
	n, err := strconv.Atoi(epochStr)
	if err != nil || n < 1 {
		return 0
	}
	return n
}

// replayState rebuilds the daemon's control state from the event log:
// the worker set, every experiment that held a live or completed shard,
// and the live lease table. It returns the highest epoch seen, so the
// caller can mint the next one. Events referencing shards outside the
// configured pool (the operator shrank Config.Shards between restarts)
// are dropped — the records are still on disk; only the control claim is
// forgotten.
func (s *Server) replayState(events []stateEvent) (lastEpoch int, err error) {
	type pending struct {
		worker     string
		experiment string
		shard      int
		expires    time.Time
	}
	live := make(map[string]*pending)
	order := []string{} // grant order, for deterministic replay
	done := make(map[string][]int)
	for _, ev := range events {
		switch ev.Type {
		case "epoch":
			if ev.Epoch > lastEpoch {
				lastEpoch = ev.Epoch
			}
		case "worker":
			s.workers[ev.Worker] = struct{}{}
		case "acquire":
			if ev.Shard < 0 || ev.Shard >= s.cfg.Shards {
				continue
			}
			if _, ok := live[ev.Lease]; !ok {
				order = append(order, ev.Lease)
			}
			live[ev.Lease] = &pending{
				worker:     ev.Worker,
				experiment: ev.Experiment,
				shard:      ev.Shard,
				expires:    time.UnixMilli(ev.ExpiresMS),
			}
		case "renew":
			if p, ok := live[ev.Lease]; ok {
				p.expires = time.UnixMilli(ev.ExpiresMS)
			}
		case "release":
			if p, ok := live[ev.Lease]; ok && ev.Complete {
				done[p.experiment] = append(done[p.experiment], p.shard)
			}
			delete(live, ev.Lease)
		case "expire":
			delete(live, ev.Lease)
		}
	}
	for name, shards := range done {
		e, err := s.experimentLocked(name)
		if err != nil {
			return 0, fmt.Errorf("collector: state replay: %w", err)
		}
		for _, sh := range shards {
			if sh >= 0 && sh < len(e.shards) {
				e.shards[sh] = shardState{state: shardDone}
			}
		}
	}
	for _, id := range order {
		p, ok := live[id]
		if !ok {
			continue
		}
		e, err := s.experimentLocked(p.experiment)
		if err != nil {
			return 0, fmt.Errorf("collector: state replay: %w", err)
		}
		if e.shards[p.shard].state != shardFree {
			// Two journaled grants for one shard can only mean the log was
			// hand-edited; keep the first, drop the rest.
			continue
		}
		l := &lease{id: id, exp: e, shard: p.shard, worker: p.worker, expires: p.expires}
		e.shards[p.shard] = shardState{state: shardLeased, l: l}
		e.leases[id] = l
	}
	return lastEpoch, nil
}
