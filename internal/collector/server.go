package collector

import (
	"crypto/subtle"
	"encoding/json"
	"fmt"
	"io"
	"log/slog"
	"net/http"
	"path/filepath"
	"sort"
	"strconv"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/runstore"
	"repro/internal/runstore/shardstore"
	"repro/internal/warehouse"
)

// Config configures a collector Server.
type Config struct {
	// Dir is the directory the collected per-experiment shard journals
	// live in. Required.
	Dir string
	// Shards is the shard-pool size of every experiment — how many
	// workers can execute one experiment concurrently. Values < 1
	// default to 1.
	Shards int
	// LeaseTTL bounds how long a silent worker keeps its shard; an
	// expired lease returns the shard to the pool for a surviving worker
	// to warm-start. 0 defaults to 30s.
	LeaseTTL time.Duration
	// MaxInflight bounds the ingest bytes admitted concurrently per
	// experiment — the backpressure knob. Requests that would exceed it
	// are refused with 429 and a Retry-After. 0 defaults to 8 MiB.
	MaxInflight int64
	// RetryAfter is the wait hinted to a backpressured or shard-starved
	// client. 0 defaults to 1s.
	RetryAfter time.Duration
	// Token, when set, locks every data-plane endpoint (register, lease
	// lifecycle, ingest, and the snapshot read — it streams collected
	// record contents) behind `Authorization: Bearer <Token>`. The
	// control-plane read-only surfaces stay open — status views and
	// metrics scrapes carry no write authority and expose no record
	// data. Empty disables auth (the loopback default).
	Token string
	// Baseline, when set, names a baseline store file (journal or
	// archive): the gate status endpoint compares collected records
	// against it. New summarizes it once, and fails when it cannot be
	// read; later changes to the file are not seen.
	Baseline string
	// Clock is the server's time source; nil means time.Now. Tests
	// drive lease expiry through it.
	Clock func() time.Time
	// Metrics is the registry the daemon's instruments register in; nil
	// means the process-wide obs.Default(), which is what a deployed
	// daemon wants — /v1/metrics then also exposes the runstore and
	// scheduler series of the same process. Tests pass a private
	// registry to assert exact counts.
	Metrics *obs.Registry
	// Logger receives the daemon's structured log; nil discards. The
	// perfeval serve command wires it to stderr at the level chosen by
	// -Dcollector.log.
	Logger *slog.Logger
}

// fill resolves the config's defaults.
func (c *Config) fill() error {
	if c.Dir == "" {
		return fmt.Errorf("collector: Config.Dir is required (the collected stores live there)")
	}
	if c.Shards < 1 {
		c.Shards = 1
	}
	if c.LeaseTTL <= 0 {
		c.LeaseTTL = 30 * time.Second
	}
	if c.MaxInflight <= 0 {
		c.MaxInflight = 8 << 20
	}
	if c.RetryAfter <= 0 {
		c.RetryAfter = time.Second
	}
	if c.Clock == nil {
		c.Clock = time.Now
	}
	if c.Metrics == nil {
		c.Metrics = obs.Default()
	}
	if c.Logger == nil {
		c.Logger = discardLogger()
	}
	return nil
}

// discardLogger is the nil-Logger default: structure without output.
func discardLogger() *slog.Logger {
	return slog.New(slog.NewTextHandler(io.Discard, nil))
}

// Server is the collector daemon: an http.Handler multiplexing many
// experiments and many concurrent workers over sharded runstore
// journals. Create one with New, serve it with net/http (or
// httptest.NewServer in tests), and Close it when done.
type Server struct {
	cfg Config
	mux *http.ServeMux
	reg *obs.Registry
	met *serverMetrics
	log *slog.Logger

	state *stateLog // durable control state; replayed by New on restart
	epoch int       // this daemon incarnation, embedded in lease ids

	query queryState // lazily-opened warehouse behind GET /v1/query

	baseline []*runstore.Summary // Config.Baseline, summarized by New

	mu      sync.Mutex
	workers map[string]struct{}
	exps    map[string]*experiment
	seq     int // lease and worker name sequence
	closed  bool
	closing chan struct{} // closed with closed set: ends every held acquire
}

// experiment is one experiment's control state: its shard journals and
// the shard pool leases are granted from.
type experiment struct {
	name       string
	journals   []*runstore.Journal // shard K's file, shardstore.Path
	shards     []shardState
	leases     map[string]*lease
	committers []*committer   // lazily started per shard; nil until first ingest
	submits    sync.WaitGroup // in-flight commit submissions, drained by Close
	records    int64
	inflight   int64
	// changed is what a held acquire waits on: made for the first one to
	// wait, closed (and forgotten) the next time a shard stops being
	// leased. Nil while nobody waits.
	changed chan struct{}
}

// changedLocked returns the channel the next pool change closes.
// Callers hold s.mu.
func (e *experiment) changedLocked() <-chan struct{} {
	if e.changed == nil {
		e.changed = make(chan struct{})
	}
	return e.changed
}

// poolChangedLocked wakes every held acquire of e: a shard was released,
// completed, or reclaimed from an expired lease, so what they were told
// to wait for may now be decided. Callers hold s.mu.
func (e *experiment) poolChangedLocked() {
	if e.changed != nil {
		close(e.changed)
		e.changed = nil
	}
}

// shard pool states.
const (
	shardFree = iota
	shardLeased
	shardDone
)

type shardState struct {
	state int
	l     *lease // set iff state == shardLeased
}

// lease is one worker's TTL-bounded exclusive claim on a shard.
type lease struct {
	id      string
	exp     *experiment
	shard   int
	worker  string
	expires time.Time
}

// New returns a Server for cfg. If the directory holds a control-state
// journal from a previous daemon, its worker registrations and live
// leases are resumed — a restarted daemon picks up its fleet where the
// old one left it — and the new incarnation runs at the next epoch, so
// leases the old daemon granted but did not persist as live answer with
// a stale-epoch 409 instead of colliding with fresh grants.
func New(cfg Config) (*Server, error) {
	if err := cfg.fill(); err != nil {
		return nil, err
	}
	var baseline []*runstore.Summary
	if cfg.Baseline != "" {
		var err error
		if baseline, err = warehouse.Summarize(cfg.Baseline); err != nil {
			return nil, fmt.Errorf("collector: baseline: %w", err)
		}
	}
	s := &Server{
		cfg:      cfg,
		reg:      cfg.Metrics,
		met:      newServerMetrics(cfg.Metrics),
		log:      cfg.Logger,
		baseline: baseline,
		workers:  make(map[string]struct{}),
		exps:     make(map[string]*experiment),
		closing:  make(chan struct{}),
	}
	state, events, err := openStateLog(filepath.Join(cfg.Dir, StateFile))
	if err != nil {
		return nil, err
	}
	s.state = state
	lastEpoch, err := s.replayState(events)
	if err != nil {
		state.close()
		return nil, err
	}
	s.epoch = lastEpoch + 1
	if err := state.append(stateEvent{Type: "epoch", Epoch: s.epoch}); err != nil {
		state.close()
		return nil, err
	}
	s.met.workers.Set(int64(len(s.workers)))
	s.met.epoch.Set(int64(s.epoch))
	resumed := 0
	for _, e := range s.exps {
		resumed += len(e.leases)
	}
	if resumed > 0 || len(s.workers) > 0 {
		s.log.Info("control state resumed", "epoch", s.epoch,
			"workers", len(s.workers), "leases", resumed)
	}
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+PathRegister, s.auth(s.handleRegister))
	mux.HandleFunc("POST "+PathAcquire, s.auth(s.handleAcquire))
	mux.HandleFunc("POST "+PathRenew, s.auth(s.handleRenew))
	mux.HandleFunc("POST "+PathRelease, s.auth(s.handleRelease))
	mux.HandleFunc("POST "+PathIngest, s.auth(s.handleIngest))
	// Snapshot is a data-plane read — it streams the shard's record
	// contents — so it sits behind the same token as ingest; the lease id
	// alone is no secret (deterministic form, printed in logs).
	mux.HandleFunc("GET "+PathSnapshot, s.auth(s.handleSnapshot))
	mux.HandleFunc("GET "+PathStatus, s.handleStatus)
	mux.HandleFunc("GET "+PathCells, s.handleCells)
	mux.HandleFunc("GET "+PathGate, s.handleGate)
	mux.HandleFunc("GET "+PathMetrics, s.handleMetrics)
	mux.HandleFunc("GET "+PathQuery, s.handleQuery)
	s.mux = mux
	return s, nil
}

// auth wraps a mutating handler behind the shared-token check. With no
// Token configured it is the handler itself — zero cost on the default
// loopback deployment.
func (s *Server) auth(h http.HandlerFunc) http.HandlerFunc {
	if s.cfg.Token == "" {
		return h
	}
	want := []byte("Bearer " + s.cfg.Token)
	return func(w http.ResponseWriter, r *http.Request) {
		got := []byte(r.Header.Get("Authorization"))
		if subtle.ConstantTimeCompare(got, want) != 1 {
			w.Header().Set("WWW-Authenticate", `Bearer realm="collector"`)
			writeError(w, http.StatusUnauthorized, "collector: missing or invalid bearer token")
			return
		}
		h(w, r)
	}
}

// ServeHTTP implements http.Handler.
func (s *Server) ServeHTTP(w http.ResponseWriter, r *http.Request) { s.mux.ServeHTTP(w, r) }

// Close answers every held acquire (409, as if its wait had run out),
// drains every experiment's group-commit engine — batches already
// acknowledged (or about to be) are durable before their journal closes
// — then closes the shard journals and the control-state journal.
// In-flight handlers racing Close fail their appends loudly (the
// journals are closed), never silently.
func (s *Server) Close() error {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil
	}
	s.closed = true
	close(s.closing)
	exps := make([]*experiment, 0, len(s.exps))
	for _, e := range s.exps {
		exps = append(exps, e)
	}
	s.mu.Unlock()

	var first error
	for _, e := range exps {
		// No new submissions start after closed is set — handlers check
		// closed under s.mu before entering the submitter group — so wait
		// out those in flight, stop the committers, and only then close
		// the journals. The committer slice is re-read under s.mu: its
		// entries are lazily written by ingest handlers holding the lock,
		// and the closed check alone does not order those writes with
		// this read.
		e.submits.Wait()
		s.mu.Lock()
		committers := make([]*committer, len(e.committers))
		copy(committers, e.committers)
		s.mu.Unlock()
		for _, c := range committers {
			if c != nil {
				close(c.ch)
				<-c.stopped
			}
		}
		if err := closeJournals(e.journals); err != nil && first == nil {
			first = err
		}
	}
	if err := s.closeWarehouse(); err != nil && first == nil {
		first = err
	}
	if err := s.state.close(); err != nil && first == nil {
		first = err
	}
	return first
}

// experimentLocked returns (creating on first touch) the control state
// for one experiment. Callers hold s.mu.
func (s *Server) experimentLocked(name string) (*experiment, error) {
	if e, ok := s.exps[name]; ok {
		return e, nil
	}
	if s.closed {
		return nil, fmt.Errorf("collector: server is closed")
	}
	journals := make([]*runstore.Journal, 0, s.cfg.Shards)
	// Seed the counter from the reopened journals: after a restart the
	// status view must not under-report records already durably
	// collected. A genuinely new experiment opens empty, so this is 0.
	var records int64
	for _, path := range shardstore.Paths(s.cfg.Dir, name, s.cfg.Shards) {
		j, err := runstore.Open(path)
		if err != nil {
			closeJournals(journals)
			return nil, err
		}
		journals = append(journals, j)
		records += int64(j.Len())
	}
	e := &experiment{
		name:       name,
		journals:   journals,
		shards:     make([]shardState, s.cfg.Shards),
		leases:     make(map[string]*lease),
		committers: make([]*committer, s.cfg.Shards),
		records:    records,
	}
	s.exps[name] = e
	return e, nil
}

// closeJournals closes every journal, returning the first error.
func closeJournals(journals []*runstore.Journal) error {
	var first error
	for _, j := range journals {
		if err := j.Close(); err != nil && first == nil {
			first = err
		}
	}
	return first
}

// sweepLocked enforces lease expiry lazily: every expired lease is
// dropped and its shard returned to the free pool, where the next
// acquire warm-starts it. Callers hold s.mu.
func (s *Server) sweepLocked(e *experiment, now time.Time) {
	for id, l := range e.leases {
		if now.After(l.expires) {
			e.shards[l.shard] = shardState{state: shardFree}
			delete(e.leases, id)
			e.poolChangedLocked()
			s.met.leaseExpired.Inc()
			s.persist(stateEvent{Type: "expire", Lease: id})
			// The handoff must be diagnosable from the daemon log alone:
			// this is the only place a dead worker's shard changes hands.
			s.log.Info("lease expired, shard returned to pool",
				"lease", id, "worker", l.worker,
				"experiment", e.name, "shard", l.shard)
		}
	}
}

// persist journals one control-state event. A write failure cannot fail
// the control operation that caused it — the in-memory state is already
// the truth for this incarnation — so it is logged and the daemon keeps
// serving; what is lost is only fidelity of a later restart's resume.
func (s *Server) persist(ev stateEvent) {
	if err := s.state.append(ev); err != nil {
		s.met.stateErrors.Inc()
		s.log.Error("control-state journal append failed", "type", ev.Type, "err", err)
	}
}

// leaseLocked resolves a live lease id across experiments, sweeping
// expiry first — a lease that expired reads as gone, exactly what its
// (possibly still running) former owner must observe. Callers hold s.mu.
func (s *Server) leaseLocked(id string, now time.Time) (*lease, bool) {
	for _, e := range s.exps {
		s.sweepLocked(e, now)
		if l, ok := e.leases[id]; ok {
			return l, true
		}
	}
	return nil, false
}

// handleRegister announces a worker, assigning a name when none is
// offered. Registration is advisory — acquire registers implicitly —
// but gives fleets stable names for the status view.
func (s *Server) handleRegister(w http.ResponseWriter, r *http.Request) {
	var req RegisterRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeError(w, http.StatusBadRequest, fmt.Sprintf("collector: bad register request: %v", err))
		return
	}
	s.mu.Lock()
	if req.Worker == "" {
		s.seq++
		req.Worker = "worker-" + strconv.Itoa(s.epoch) + "-" + strconv.Itoa(s.seq)
	}
	s.registerLocked(req.Worker)
	s.mu.Unlock()
	s.log.Debug("worker registered", "worker", req.Worker)
	writeJSON(w, http.StatusOK, RegisterResponse{Worker: req.Worker})
}

// registerLocked records a worker name, journaling it the first time it
// is seen. Callers hold s.mu.
func (s *Server) registerLocked(worker string) {
	if _, known := s.workers[worker]; !known {
		s.workers[worker] = struct{}{}
		s.persist(stateEvent{Type: "worker", Worker: worker})
	}
	s.met.workers.Set(int64(len(s.workers)))
}

// writeJSON writes one JSON response body.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	json.NewEncoder(w).Encode(v)
}

// writeError writes the uniform JSON error body.
func writeError(w http.ResponseWriter, status int, msg string) {
	writeJSON(w, status, ErrorResponse{Error: msg})
}

// retryAfterHeader sets the Retry-After hint, rounded to whole seconds.
// A sub-500ms configured wait rounds to "0": the header grammar has no
// finer unit, and the client floors its own retry delay (it never
// hammers), so a daemon tuned for fast turnaround — soak tests, loopback
// fleets — should be allowed to say "soon" instead of a mandatory 1s.
func retryAfterHeader(w http.ResponseWriter, d time.Duration) {
	secs := int((d + 500*time.Millisecond) / time.Second)
	w.Header().Set("Retry-After", strconv.Itoa(secs))
}

// sortedWorkers snapshots the registered worker names, sorted for a
// deterministic status body. Callers hold s.mu.
func (s *Server) sortedWorkersLocked() []string {
	names := make([]string, 0, len(s.workers))
	for name := range s.workers {
		names = append(names, name)
	}
	sort.Strings(names)
	return names
}
