package collector

// The collector's control protocol is small JSON request/response
// bodies; the data path (ingest, snapshot) is NDJSON record streams in
// the journal's own line framing (runstore.EncodeWire/DecodeWire). The
// full wire contract — endpoints, status codes, lease semantics, the
// backpressure rule — is documented in docs/COLLECTOR.md; these types
// are its Go shape, shared by the server and the worker client.

// Endpoint paths of the collector protocol.
const (
	// PathRegister announces a worker (POST RegisterRequest).
	PathRegister = "/v1/register"
	// PathAcquire grants a shard lease (POST AcquireRequest).
	PathAcquire = "/v1/lease/acquire"
	// PathRenew extends a live lease (POST RenewRequest).
	PathRenew = "/v1/lease/renew"
	// PathRelease returns a shard, completed or abandoned (POST
	// ReleaseRequest).
	PathRelease = "/v1/lease/release"
	// PathIngest streams NDJSON records under a lease (POST, ?lease=).
	PathIngest = "/v1/ingest"
	// PathSnapshot streams a leased shard's current records as NDJSON
	// (GET, ?lease=) — the warm-start feed.
	PathSnapshot = "/v1/snapshot"
	// PathStatus reports live control state (GET StatusResponse).
	PathStatus = "/v1/status"
	// PathCells reports per-cell replicate counts (GET, ?experiment=).
	PathCells = "/v1/status/cells"
	// PathGate gates an experiment against the configured baseline
	// (GET, ?experiment=).
	PathGate = "/v1/status/gate"
	// PathMetrics exposes the server's metrics registry (GET) in the
	// Prometheus text format, or JSON via ?format=json or an
	// Accept: application/json header.
	PathMetrics = "/v1/metrics"
	// PathQuery answers warehouse queries over the collected stores
	// (GET, ?kind=&experiment=&cell=&response=&confidence=&tolerance=
	// &limit=). The response body is the warehouse query Result —
	// identical, for the same warehouse, to what `perfeval query`
	// prints as JSON; both run the same internal/warehouse core.
	PathQuery = "/v1/query"
)

// HeaderStaleLease marks a 409 response caused by a lease id from an
// earlier daemon epoch (the daemon restarted and did not resume the
// lease). It lets a client tell "your lease is permanently gone —
// re-acquire" apart from the other 409, a record-routing conflict that
// is a worker-side sharding bug.
const HeaderStaleLease = "X-Collector-Stale-Lease"

// RegisterRequest announces a worker to the collector. An empty Worker
// asks the server to assign a name.
type RegisterRequest struct {
	Worker string `json:"worker,omitempty"`
}

// RegisterResponse returns the worker's (possibly server-assigned) name.
type RegisterResponse struct {
	Worker string `json:"worker"`
}

// AcquireRequest asks for a shard lease on one experiment. WaitMillis,
// when positive, is how long the daemon may keep the request while every
// incomplete shard is leased instead of answering 409 at once: it
// answers the moment a release, an expiry or the last completion decides
// the matter, and 409 only if that long passes first. A daemon that
// predates the field ignores it and answers at once.
type AcquireRequest struct {
	Worker     string `json:"worker"`
	Experiment string `json:"experiment"`
	WaitMillis int64  `json:"wait_ms,omitempty"`
}

// AcquireResponse grants a lease: an exclusive TTL-bounded claim on one
// shard of the experiment's pool. The worker must run only the design
// rows runstore.ShardIndex routes to Shard, renew well inside the TTL,
// and release when the shard's budget is complete.
type AcquireResponse struct {
	Lease     string `json:"lease"`
	Shard     int    `json:"shard"`
	Shards    int    `json:"shards"`
	TTLMillis int64  `json:"ttl_ms"`
}

// RenewRequest extends a live lease by the server's TTL.
type RenewRequest struct {
	Lease string `json:"lease"`
}

// RenewResponse acknowledges a renewal.
type RenewResponse struct {
	TTLMillis int64 `json:"ttl_ms"`
}

// ReleaseRequest returns a shard to the server: Complete marks it done
// (it leaves the pool); otherwise it returns to the free pool for
// another worker to pick up warm.
type ReleaseRequest struct {
	Lease    string `json:"lease"`
	Complete bool   `json:"complete"`
}

// IngestResponse acknowledges one ingest batch; every acknowledged
// record is durably stored.
type IngestResponse struct {
	Appended int `json:"appended"`
}

// ErrorResponse is the JSON body of every non-2xx collector response.
type ErrorResponse struct {
	Error string `json:"error"`
}

// StatusResponse is the collector's live control-plane view. Epoch is
// the daemon's incarnation number: it increments on every restart, and
// lease ids carry the epoch that granted them, so a fleet can tell "the
// daemon I knew" from "its successor" without any other signal.
type StatusResponse struct {
	Epoch       int                `json:"epoch"`
	Workers     []string           `json:"workers"`
	Experiments []ExperimentStatus `json:"experiments"`
}

// ExperimentStatus is one experiment's shard pool and traffic counters.
type ExperimentStatus struct {
	Experiment    string        `json:"experiment"`
	Shards        int           `json:"shards"`
	Free          int           `json:"free"`
	Leased        int           `json:"leased"`
	Done          int           `json:"done"`
	Records       int64         `json:"records"`        // records ingested since serve start
	InflightBytes int64         `json:"inflight_bytes"` // ingest bytes currently admitted
	Leases        []LeaseStatus `json:"leases,omitempty"`
}

// LeaseStatus is one live lease.
type LeaseStatus struct {
	Lease     string `json:"lease"`
	Worker    string `json:"worker"`
	Shard     int    `json:"shard"`
	ExpiresIn int64  `json:"expires_in_ms"`
}

// CellStatus is one design cell's replicate spend as stored so far —
// the live per-cell budget view.
type CellStatus struct {
	Assignment string `json:"assignment"`
	Hash       string `json:"hash"`
	Replicates int    `json:"replicates"`
}

// CellsResponse reports an experiment's per-cell replicate counts from a
// snapshot-at-start scan of its store.
type CellsResponse struct {
	Experiment string       `json:"experiment"`
	Records    int          `json:"records"`
	Cells      []CellStatus `json:"cells"`
}

// GateResponse is the regression-gate verdict of the collected records
// against the server's configured baseline store.
type GateResponse struct {
	Experiment string        `json:"experiment"`
	OK         bool          `json:"ok"`
	Regressed  int           `json:"regressed"`
	Verdicts   []GateVerdict `json:"verdicts"`
	Report     string        `json:"report"` // the house-style gate table
}

// GateVerdict is one gated (assignment, response) cell.
type GateVerdict struct {
	Assignment string  `json:"assignment"`
	Response   string  `json:"response"`
	Verdict    string  `json:"verdict"`
	DeltaPct   float64 `json:"delta_pct"`
}
