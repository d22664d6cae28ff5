// Package warehouse turns a directory of finished run stores into a
// queryable result history — the fourth pillar next to execute
// (internal/sched), store (internal/runstore), and collect
// (internal/collector).
//
// Three layers:
//
//   - The catalog (Discover, Warehouse.Refresh) walks a root directory
//     for store files every runstore reader understands — JSONL
//     journals, binary journals, block-indexed archives — and treats
//     each file as one *run*. Refresh is incremental: a source whose
//     size and modification time are unchanged is never re-read, and a
//     changed one is re-ingested whole (its run summary is replaced,
//     last-wins) in one forward pass that walks every frame once and
//     builds no record (runstore.SourceReader.Fields);
//     changed sources are read in parallel and indexed in catalog
//     order. Sources that vanish stay in the index: the warehouse is
//     the history, the store files are only its substrate.
//   - The cell-history index (one checksummed internal/framelog file,
//     warehouse.idx) persists one summary per run: per (experiment, cell,
//     response) aggregates — replicate count, mean, unbiased sample
//     variance — from which confidence intervals are rebuilt at query
//     time via internal/stats. Queries never touch the source record
//     blocks; deleting every source file after a Refresh changes no
//     answer. A run's JSON document is written and parsed by codec.go,
//     which knows its one shape; encoding/json is its specification
//     and its fallback. An index is a history of the same design, so
//     the frames of one Open are replayed against one dictionary: a
//     design cell's experiment, hash, assignment map and selector (the
//     assignment's canonical "k=v k=v" string) are built once per Open
//     and shared by every run that spells the cell the same way — safe
//     because a run is only ever replaced whole — which makes every
//     Assignment map the index hands out read-only.
//   - The query core (Request, Result, Warehouse.Query) answers run
//     listings, per-cell history, per-experiment trend lines, and
//     regression listings reusing the CI-shift rule of the runstore
//     regression gate (disjoint intervals, higher mean = regressed).
//     A query is one pass over the live runs' cells: it compares
//     strings every cell already carries — its hash, and its selector,
//     rendered at ingest or at replay and never by a query — and
//     evaluates the t-quantile once per distinct replicate count.
//     Nothing is kept between queries.
//     The same core backs repro.Query, `perfeval query`, and the
//     collector daemon's GET /v1/query, so they cannot drift.
//
// Durability contract: the index file is a frame log in the
// checksummed framing (docs/FORMAT.md §2, §5) — magic header,
// length-prefixed CRC-32C frames, one fsync per Put, fail-stop after a
// failed Put — so a crash leaves at most one torn trailing frame,
// truncated on the next open. Because length-prefixed framing cannot
// resynchronize, a frame that fails its checksum ends the readable
// region exactly like a torn tail — the entries it hid are re-ingested
// by the next Refresh, so the index self-heals instead of serving a
// silently shortened history as complete. Damage a torn single-write
// append cannot produce is an error: a complete header claiming an
// impossible payload length, a checksum-valid payload that does not
// decode, a foreign magic header. The index expects one writer at a
// time; concurrent writers stay consistent (appends are O_APPEND
// atomic, entries are last-wins by run path) but may duplicate frames.
//
// Concurrency contract: a Warehouse is safe for concurrent use —
// Refresh, Prune, and Query serialize on an internal mutex, so a
// long-lived embedder (the collector daemon) can serve queries while
// the catalog refreshes. The goroutines a Refresh reads its sources on
// are its own: it returns once they have.
//
// Retention (Warehouse.Prune) drops expired runs from the index only —
// source files are never touched — by replacing each expired entry
// with a tombstone that remembers the source's size and modification
// time, so a later Refresh does not silently resurrect it.
package warehouse
