package collector

import (
	"fmt"
	"net/http"
	"sort"

	"repro/internal/design"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/warehouse"
)

// handleStatus reports the live control plane: registered workers and,
// per experiment, the shard pool (free/leased/done), live leases, and
// traffic counters. It reads only the mutex-guarded control state — no
// store I/O — so fleets can poll it hard.
func (s *Server) handleStatus(w http.ResponseWriter, r *http.Request) {
	now := s.cfg.Clock()
	s.mu.Lock()
	resp := StatusResponse{Epoch: s.epoch, Workers: s.sortedWorkersLocked()}
	names := make([]string, 0, len(s.exps))
	for name := range s.exps {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		e := s.exps[name]
		s.sweepLocked(e, now)
		es := ExperimentStatus{
			Experiment:    e.name,
			Shards:        len(e.shards),
			Records:       e.records,
			InflightBytes: e.inflight,
		}
		for _, sh := range e.shards {
			switch sh.state {
			case shardFree:
				es.Free++
			case shardLeased:
				es.Leased++
			case shardDone:
				es.Done++
			}
		}
		for _, l := range e.leases {
			es.Leases = append(es.Leases, LeaseStatus{
				Lease:     l.id,
				Worker:    l.worker,
				Shard:     l.shard,
				ExpiresIn: l.expires.Sub(now).Milliseconds(),
			})
		}
		sort.Slice(es.Leases, func(i, j int) bool { return es.Leases[i].Shard < es.Leases[j].Shard })
		resp.Experiments = append(resp.Experiments, es)
	}
	s.mu.Unlock()
	writeJSON(w, http.StatusOK, resp)
}

// handleCells reports one experiment's per-cell replicate counts — the
// live budget view — from a snapshot-at-start scan of each shard
// journal in shard order, the same streaming iteration contract every
// read-only consumer uses.
func (s *Server) handleCells(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("experiment")
	if name == "" {
		writeError(w, http.StatusBadRequest, "collector: cells needs ?experiment=")
		return
	}
	s.mu.Lock()
	e, ok := s.exps[name]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("collector: experiment %q has no collected records", name))
		return
	}
	type cell struct {
		assignment string
		hash       string
		reps       int
	}
	cells := map[string]*cell{}
	records := 0
	for _, j := range e.journals {
		for rec, err := range j.Scan() {
			if err != nil {
				writeError(w, http.StatusInternalServerError, err.Error())
				return
			}
			records++
			c := cells[rec.Hash]
			if c == nil {
				c = &cell{assignment: design.Assignment(rec.Assignment).String(), hash: rec.Hash}
				cells[rec.Hash] = c
			}
			c.reps++
		}
	}
	resp := CellsResponse{Experiment: name, Records: records}
	for _, c := range cells {
		resp.Cells = append(resp.Cells, CellStatus{Assignment: c.assignment, Hash: c.hash, Replicates: c.reps})
	}
	sort.Slice(resp.Cells, func(i, j int) bool { return resp.Cells[i].Assignment < resp.Cells[j].Assignment })
	writeJSON(w, http.StatusOK, resp)
}

// handleGate gates one experiment's collected records against the
// server's configured baseline store and reports the verdicts — the
// regression gate, live, while workers are still streaming. Both sides
// are summarized from their files by warehouse.Summarize: the baseline
// once, by New, and the experiment's shard journals as they stand at
// each request, so a batch already written but not yet acknowledged may
// be counted.
func (s *Server) handleGate(w http.ResponseWriter, r *http.Request) {
	name := r.URL.Query().Get("experiment")
	if name == "" {
		writeError(w, http.StatusBadRequest, "collector: gate needs ?experiment=")
		return
	}
	if s.cfg.Baseline == "" {
		writeError(w, http.StatusNotFound, "collector: no baseline store configured (Config.Baseline)")
		return
	}
	s.mu.Lock()
	e, ok := s.exps[name]
	s.mu.Unlock()
	if !ok {
		writeError(w, http.StatusNotFound, fmt.Sprintf("collector: experiment %q has no collected records", name))
		return
	}
	base := experimentSummary(s.baseline, name)
	if base == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("collector: baseline %s holds no experiment %q", s.cfg.Baseline, name))
		return
	}
	curSums, err := warehouse.Summarize(shardstore.Paths(s.cfg.Dir, name, len(e.shards))...)
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	cur := experimentSummary(curSums, name)
	if cur == nil {
		writeError(w, http.StatusNotFound, fmt.Sprintf("collector: experiment %q has no collected records yet", name))
		return
	}
	report, err := runstore.Gate(base, cur, runstore.GateOptions{})
	if err != nil {
		writeError(w, http.StatusInternalServerError, err.Error())
		return
	}
	resp := GateResponse{Experiment: name, Report: report.String()}
	for _, f := range report.Findings {
		if f.Verdict == runstore.Regressed {
			resp.Regressed++
		}
		resp.Verdicts = append(resp.Verdicts, GateVerdict{
			Assignment: design.Assignment(f.Assignment).String(),
			Response:   f.Response,
			Verdict:    f.Verdict.String(),
			DeltaPct:   f.DeltaPct,
		})
	}
	resp.OK = resp.Regressed == 0
	writeJSON(w, http.StatusOK, resp)
}

// experimentSummary is the summary of the named experiment among sums, or
// nil.
func experimentSummary(sums []*runstore.Summary, name string) *runstore.Summary {
	for _, sum := range sums {
		if sum.Experiment == name {
			return sum
		}
	}
	return nil
}
