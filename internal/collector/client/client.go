package client

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"log/slog"
	"math/rand/v2"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"repro/internal/collector"
	"repro/internal/obs"
	"repro/internal/runstore"
)

// Sentinel errors of the collector protocol. Callers match them with
// errors.Is; the wrapped text carries the server's own account.
var (
	// ErrComplete: every shard of the experiment is done (acquire
	// answered 204) — the worker drains.
	ErrComplete = errors.New("collector: experiment complete")
	// ErrBusy: all incomplete shards are leased right now (409 on
	// acquire) — retry after the server's hint.
	ErrBusy = errors.New("collector: all shards leased")
	// ErrLeaseLost: the lease is not live any more (410) — the TTL
	// expired and the shard is free for another worker. Stop streaming.
	ErrLeaseLost = errors.New("collector: lease lost")
	// ErrConflict: the server refused a record that does not belong to
	// the lease (409 on ingest) — a worker-side sharding bug.
	ErrConflict = errors.New("collector: conflict")
)

// Client speaks the collector wire protocol (docs/COLLECTOR.md) to one
// server. It is safe for concurrent use; 429 backpressure on ingest is
// absorbed internally by honoring the server's Retry-After hint.
type Client struct {
	base   string
	hc     *http.Client
	met    *clientMetrics
	log    *slog.Logger
	binary bool
	token  string
}

// New returns a Client for the collector at base (e.g.
// "http://host:8080"). httpClient nil means http.DefaultClient. The
// client's instruments register in obs.Default() and its log is
// discarded; SetMetrics and SetLogger override both.
func New(base string, httpClient *http.Client) *Client {
	if httpClient == nil {
		httpClient = http.DefaultClient
	}
	return &Client{
		base: base,
		hc:   httpClient,
		met:  newClientMetrics(obs.Default()),
		log:  discardLogger(),
	}
}

// SetBinary selects the binary wire framing (runstore.WireBinaryType)
// for ingest uploads and snapshot downloads; off, the client speaks the
// NDJSON default. Content negotiation keeps either setting safe against
// any server: ingest declares its framing in Content-Type, and snapshot
// decodes whatever framing the response Content-Type declares — a
// JSON-only server simply answers in JSON. Configure before the first
// request; like SetMetrics and SetLogger it is not synchronized with
// in-flight calls.
func (c *Client) SetBinary(on bool) { c.binary = on }

// SetToken attaches the collector's shared bearer token to every request
// (collector.Config.Token on the server side). Empty sends no
// Authorization header. Configure before the first request, like
// SetBinary.
func (c *Client) SetToken(token string) { c.token = token }

// Register announces the worker, returning the (server-assigned when
// empty) worker name.
func (c *Client) Register(ctx context.Context, worker string) (string, error) {
	var resp collector.RegisterResponse
	if err := c.postJSON(ctx, collector.PathRegister, collector.RegisterRequest{Worker: worker}, &resp); err != nil {
		return "", err
	}
	return resp.Worker, nil
}

// Acquire asks for a shard lease on one experiment. It returns
// ErrComplete when the experiment has no work left and ErrBusy (with
// the server's suggested wait) when every incomplete shard is leased.
func (c *Client) Acquire(ctx context.Context, worker, experiment string) (*collector.AcquireResponse, error) {
	return c.acquire(ctx, worker, experiment, 0)
}

// acquire is Acquire with a hold: a positive wait asks the daemon to
// keep the request for up to that long while every incomplete shard is
// leased, and to answer the moment that changes, instead of ErrBusy at
// once (collector.AcquireRequest.WaitMillis). The round trip can so
// take up to wait longer; the transport must not time out under it.
func (c *Client) acquire(ctx context.Context, worker, experiment string, wait time.Duration) (*collector.AcquireResponse, error) {
	req, err := c.request(ctx, http.MethodPost, collector.PathAcquire, nil,
		collector.AcquireRequest{Worker: worker, Experiment: experiment, WaitMillis: wait.Milliseconds()})
	if err != nil {
		return nil, err
	}
	httpResp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(httpResp)
	switch httpResp.StatusCode {
	case http.StatusOK:
		var resp collector.AcquireResponse
		if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
			return nil, fmt.Errorf("collector client: decoding acquire response: %w", err)
		}
		return &resp, nil
	case http.StatusNoContent:
		return nil, ErrComplete
	case http.StatusConflict:
		return nil, fmt.Errorf("%w (retry in %v): %s", ErrBusy, retryAfter(httpResp), serverError(httpResp))
	default:
		return nil, fmt.Errorf("collector client: acquire: %s", serverError(httpResp))
	}
}

// Snapshot fetches the lease's shard warm-start snapshot: every record
// the server already holds for that shard, keyed for replay.
func (c *Client) Snapshot(ctx context.Context, lease string) (map[string]runstore.Record, error) {
	req, err := c.request(ctx, http.MethodGet, collector.PathSnapshot, url.Values{"lease": {lease}}, nil)
	if err != nil {
		return nil, err
	}
	if c.binary {
		req.Header.Set("Accept", runstore.WireBinaryType)
	}
	httpResp, err := c.doRetry(ctx, controlRetries, func() (*http.Request, error) {
		return req.Clone(ctx), nil
	})
	if err != nil {
		return nil, err
	}
	defer drain(httpResp)
	if httpResp.StatusCode == http.StatusGone ||
		(httpResp.StatusCode == http.StatusConflict && staleLease(httpResp)) {
		return nil, fmt.Errorf("%w: %s", ErrLeaseLost, serverError(httpResp))
	}
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("collector client: snapshot: %s", serverError(httpResp))
	}
	_, decode := runstore.NegotiateWire(httpResp.Header.Get("Content-Type"))
	warm := make(map[string]runstore.Record)
	if _, err := decode(httpResp.Body, func(rec runstore.Record) error {
		warm[rec.Key()] = rec
		return nil
	}); err != nil {
		return nil, fmt.Errorf("collector client: snapshot stream: %w", err)
	}
	return warm, nil
}

// Ingest streams one batch of records under the lease: it encodes them
// in the client's wire framing, once, and sends that. Backpressure
// (429) is retried after the server's hint until ctx ends; a storage
// failure or shutdown (503) is retried the same way but a bounded
// number of times; 410 maps to ErrLeaseLost and 409 to ErrConflict,
// both of which mean: stop.
func (c *Client) Ingest(ctx context.Context, lease string, recs []runstore.Record) error {
	if len(recs) == 0 {
		return nil
	}
	encode := runstore.EncodeBatch
	if c.binary {
		encode = runstore.EncodeBatchBinary
	}
	batch, err := encode(recs)
	if err != nil {
		return err
	}
	return c.send(ctx, lease, batch)
}

// send POSTs one encoded batch to the ingest endpoint, in the framing it
// was encoded in, and sees it through the retries Ingest documents.
func (c *Client) send(ctx context.Context, lease string, batch *runstore.EncodedBatch) error {
	payload, records := batch.Bytes(), batch.Len()
	req, err := c.request(ctx, http.MethodPost, collector.PathIngest, url.Values{"lease": {lease}}, nil)
	if err != nil {
		return err
	}
	req.Header.Set("Content-Type", batch.WireType())
	req.ContentLength = int64(len(payload))
	// GetBody plus Idempotency-Key are what make the POST replayable:
	// net/http retries a request transparently when a reused keep-alive
	// connection turns out to be dead under it (the server closed it
	// between our requests) only if it can re-materialize the body AND
	// the request is marked idempotent — which an ingest batch is, the
	// store being last-wins. The 429 loop below re-sends through the
	// same GetBody hook instead of rebuilding the request.
	req.GetBody = func() (io.ReadCloser, error) {
		return io.NopCloser(bytes.NewReader(payload)), nil
	}
	req.Header.Set("Idempotency-Key",
		fmt.Sprintf("%s-%08x-%d", lease, crc32.ChecksumIEEE(payload), records))
	unavailable := 0
	for {
		httpResp, err := c.doRetry(ctx, ingestRetries, func() (*http.Request, error) {
			attempt := req.Clone(ctx)
			attempt.Body, _ = attempt.GetBody()
			return attempt, nil
		})
		if err != nil {
			return err
		}
		switch httpResp.StatusCode {
		case http.StatusOK:
			drain(httpResp)
			c.met.streamed.Add(int64(records))
			c.met.ingestBytes.Add(int64(len(payload)))
			c.met.batches.Inc()
			c.log.Debug("ingest batch acknowledged",
				"lease", lease, "records", records, "bytes", len(payload))
			return nil
		case http.StatusTooManyRequests:
			wait := retryAfter(httpResp)
			drain(httpResp)
			c.met.waits.Inc()
			c.met.waitMs.Add(wait.Milliseconds())
			c.log.Debug("ingest backpressured, honoring Retry-After",
				"lease", lease, "wait", wait)
			select {
			case <-time.After(wait):
				continue // the batch is re-sent whole; the store is last-wins
			case <-ctx.Done():
				return ctx.Err()
			}
		case http.StatusServiceUnavailable:
			// The server could not store the batch — shutting down, or the
			// append/fsync failed under it. The batch is idempotent, so
			// retry after the hint; bounded, unlike the 429 loop, because a
			// daemon that stays broken (disk full) must surface, not spin.
			unavailable++
			wait := retryAfter(httpResp)
			msg := serverError(httpResp)
			drain(httpResp)
			if unavailable > ingestRetries {
				return fmt.Errorf("collector client: ingest: %s", msg)
			}
			c.met.retries.Inc()
			c.log.Debug("ingest unavailable, retrying",
				"lease", lease, "attempt", unavailable, "wait", wait)
			select {
			case <-time.After(wait):
				continue
			case <-ctx.Done():
				return ctx.Err()
			}
		case http.StatusGone:
			msg := serverError(httpResp)
			drain(httpResp)
			return fmt.Errorf("%w: %s", ErrLeaseLost, msg)
		case http.StatusConflict:
			stale := staleLease(httpResp)
			msg := serverError(httpResp)
			drain(httpResp)
			if stale {
				return fmt.Errorf("%w: %s", ErrLeaseLost, msg)
			}
			return fmt.Errorf("%w: %s", ErrConflict, msg)
		default:
			msg := serverError(httpResp)
			drain(httpResp)
			return fmt.Errorf("collector client: ingest: %s", msg)
		}
	}
}

// Renew extends the lease by the server's TTL; ErrLeaseLost means the
// shard has already moved on.
func (c *Client) Renew(ctx context.Context, lease string) error {
	err := c.postJSON(ctx, collector.PathRenew, collector.RenewRequest{Lease: lease}, &collector.RenewResponse{})
	return err
}

// Release returns the shard: complete (done for good) or abandoned
// (back to the pool, warm).
func (c *Client) Release(ctx context.Context, lease string, complete bool) error {
	return c.postJSON(ctx, collector.PathRelease, collector.ReleaseRequest{Lease: lease, Complete: complete}, nil)
}

// Status fetches the collector's live control-plane view. Workers act
// on acquire answers instead; the collector's end-to-end, restart,
// held-acquire, metrics and soak tests read the view through it.
func (c *Client) Status(ctx context.Context) (*collector.StatusResponse, error) {
	req, err := c.request(ctx, http.MethodGet, collector.PathStatus, nil, nil)
	if err != nil {
		return nil, err
	}
	httpResp, err := c.hc.Do(req)
	if err != nil {
		return nil, err
	}
	defer drain(httpResp)
	if httpResp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("collector client: status: %s", serverError(httpResp))
	}
	var resp collector.StatusResponse
	if err := json.NewDecoder(httpResp.Body).Decode(&resp); err != nil {
		return nil, fmt.Errorf("collector client: decoding status: %w", err)
	}
	return &resp, nil
}

// request builds one protocol request; a non-nil body is JSON-encoded.
func (c *Client) request(ctx context.Context, method, path string, query url.Values, body any) (*http.Request, error) {
	u := c.base + path
	if len(query) > 0 {
		u += "?" + query.Encode()
	}
	var rd io.Reader
	if body != nil {
		data, err := json.Marshal(body)
		if err != nil {
			return nil, fmt.Errorf("collector client: %w", err)
		}
		rd = bytes.NewReader(data)
	}
	req, err := http.NewRequestWithContext(ctx, method, u, rd)
	if err != nil {
		return nil, fmt.Errorf("collector client: %w", err)
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if c.token != "" {
		req.Header.Set("Authorization", "Bearer "+c.token)
	}
	return req, nil
}

// Transport-retry policy: how many times an idempotent request is
// re-sent after a transport error (connection refused or reset — the
// signature of a restarting daemon), with exponential backoff between
// attempts. The total window (~6s at the ingest depth) comfortably
// covers a daemon kill-and-restart, which is exactly the outage the
// durable control state makes survivable: when the daemon comes back it
// has resumed the lease, and the retried request lands as if nothing
// happened.
const (
	transportRetryBase = 100 * time.Millisecond
	transportRetryCap  = 2 * time.Second
	ingestRetries      = 8
	controlRetries     = 4
)

// doRetry issues a request, rebuilding it via build for each attempt,
// and retries transport errors up to attempts times with exponential
// backoff. HTTP responses of any status are returned to the caller —
// only failures to get a response at all are retried, which is safe
// precisely because every request in this protocol is idempotent
// (last-wins stores, TTL renewals, at-least-once release).
func (c *Client) doRetry(ctx context.Context, attempts int, build func() (*http.Request, error)) (*http.Response, error) {
	backoff := transportRetryBase
	for attempt := 1; ; attempt++ {
		req, err := build()
		if err != nil {
			return nil, err
		}
		resp, err := c.hc.Do(req)
		if err == nil {
			return resp, nil
		}
		if attempt >= attempts || ctx.Err() != nil {
			return nil, err
		}
		c.met.retries.Inc()
		c.log.Debug("transport error, retrying", "attempt", attempt, "backoff", backoff, "err", err)
		select {
		case <-time.After(backoff):
		case <-ctx.Done():
			return nil, ctx.Err()
		}
		backoff = min(backoff*2, transportRetryCap)
	}
}

// staleLease reports whether a 409 marks a lease from a previous daemon
// epoch (collector.HeaderStaleLease) — semantically a lost lease, not a
// conflict.
func staleLease(resp *http.Response) bool {
	return resp.Header.Get(collector.HeaderStaleLease) != ""
}

// postJSON posts one JSON request and decodes a 2xx JSON response into
// out (out nil or a 204 skips decoding). 410 — and a stale-lease 409
// from a restarted daemon — map to ErrLeaseLost. Transport errors are
// retried briefly (the requests are idempotent), bridging a daemon
// restart without surfacing it to the control flow above.
func (c *Client) postJSON(ctx context.Context, path string, body, out any) error {
	httpResp, err := c.doRetry(ctx, controlRetries, func() (*http.Request, error) {
		return c.request(ctx, http.MethodPost, path, nil, body)
	})
	if err != nil {
		return err
	}
	defer drain(httpResp)
	switch {
	case httpResp.StatusCode == http.StatusGone,
		httpResp.StatusCode == http.StatusConflict && staleLease(httpResp):
		return fmt.Errorf("%w: %s", ErrLeaseLost, serverError(httpResp))
	case httpResp.StatusCode >= 300:
		return fmt.Errorf("collector client: %s: %s", path, serverError(httpResp))
	}
	if out == nil || httpResp.StatusCode == http.StatusNoContent {
		return nil
	}
	if err := json.NewDecoder(httpResp.Body).Decode(out); err != nil {
		return fmt.Errorf("collector client: decoding %s response: %w", path, err)
	}
	return nil
}

// serverError extracts the server's JSON error body, falling back to
// the HTTP status line.
func serverError(resp *http.Response) string {
	var e collector.ErrorResponse
	if err := json.NewDecoder(io.LimitReader(resp.Body, 64<<10)).Decode(&e); err == nil && e.Error != "" {
		return e.Error
	}
	return resp.Status
}

// Bounds on the honored Retry-After wait: the cap keeps a misconfigured
// (or clock-skewed HTTP-date) hint from parking a worker for an hour,
// the floor keeps a "Retry-After: 0" from turning the backoff loop into
// a hot spin.
const (
	retryAfterCap   = 30 * time.Second
	retryAfterFloor = 10 * time.Millisecond
)

// retryAfter parses the Retry-After hint — both the delta-seconds form
// and the HTTP-date form (RFC 9110 §10.2.3) — defaulting to one second
// when absent or unparsable. The wait is capped at retryAfterCap and
// jittered by ±20%, so a fleet of workers backpressured by the same
// response retries staggered instead of in lockstep, re-stampeding the
// server at the same instant.
func retryAfter(resp *http.Response) time.Duration {
	base := time.Second
	h := resp.Header.Get("Retry-After")
	if secs, err := strconv.Atoi(h); err == nil && secs >= 0 {
		// "0" is a real hint — retry immediately (modulo the floor) — not
		// an absent header.
		base = time.Duration(secs) * time.Second
	} else if t, err := http.ParseTime(h); err == nil {
		base = time.Until(t)
	}
	base = min(base, retryAfterCap)
	base = time.Duration(float64(base) * (0.8 + 0.4*rand.Float64()))
	return max(base, retryAfterFloor)
}

// drain discards and closes a response body so connections are reused.
func drain(resp *http.Response) {
	io.Copy(io.Discard, io.LimitReader(resp.Body, 1<<20))
	resp.Body.Close()
}
