// Package runstore persists experiment execution: the Store interface
// the scheduler (internal/sched) executes against, its reference
// implementation — Journal, an append-only JSONL run journal keyed by
// (experiment, assignment-hash, replicate) — plus a CI-shift regression
// gate over per-cell aggregates (Summary: replicate count, mean, sample
// variance, which warehouse.Summarize reads from a store file), journal
// compaction, canonical-order merging, and format-aware inspection.
// archivestore, a sibling package, is the other backend behind the same
// interface: a single-file block-indexed archive for million-run warm
// starts, and the one writable binary store (only Merge and Compact write
// a .binj). shardstore names where each shard journal of a sharded run
// lives; every shard file is a Journal.
//
// The journal is the durability substrate of the scheduler: a unit of
// work counts as completed only once the append covering it has
// returned, so a crashed or interrupted run resumes from disk instead of
// re-executing —
// the paper's repeatability chapter applied to the experiment harness
// itself. The file is an internal/framelog log — which owns open, scan,
// torn-tail recovery and the durable, fail-stop append — and a Journal
// adds only its codec (a JSON object per line) and the in-memory
// last-wins index. Both record codecs live
// here: json.go writes and parses a record's canonical JSON document
// (AppendJSON, DecodeJSON — also the archive's block payload and the
// NDJSON wire), binary.go the binary payload. Each reads a stored
// payload with one walk of its grammar (walkJSON, walkBinary) that fills
// a Fields view — every field, no map and no string — and has three
// projections of it: the record (decode: the view copied into memory of
// its own), the index entry with its canonical verdict (codec.entry),
// and the view itself (codec.fields, behind SourceReader.Fields and
// DecodeJSONFields). A payload the walk does not recognise — anything
// not written the way the codec writes it — is decoded the long way
// (json.Unmarshal for JSON) and flattened into the same view, so what
// decodes, to what, and with which error never depends on the
// projection. A view points into the payload it was walked from and a
// pass refills one view at every step: it is valid until the next step,
// as a framelog.Visit payload is. A record identifies the
// experiment by name, the design row by a stable hash of its factor-level
// assignment (so journals survive design-row reordering), and the
// replicate index. The normative file-format specification — record
// schema, shard-file naming, merge/compact semantics, and the archive
// layout — is docs/FORMAT.md.
//
// Concurrency contract: Journal's Append, AppendBatch, Lookup,
// ReplicateCount, Scan, Len, and Close are safe for concurrent use. The
// file is the framelog log's to serialize: appends are written one at a
// time, in the order they reach it, and their fsyncs overlap; no append
// holds the journal's own mutex, which guards only the index, so a read
// never waits behind an fsync. A record is indexed when its commit
// settles, in file order, so the live last-wins view is the one a reopen
// serves. The lock order is the log's, then the journal's. Scan
// snapshots the key set when iteration starts, so concurrent appends
// neither block nor corrupt it. Package-level
// functions that rewrite files (Compact, Merge) are single-writer:
// callers must not run them concurrently with writers of the same
// files. Read-only entry points (OpenSource, ScanFile, LoadRecords,
// Inspect) never write and may run against files another process is
// appending to; they see a prefix.
//
// Streaming contract: the Store view (Scan) and every file-level reader
// (ScanFile, SourceReader, Merge, Compact) hand records to the consumer
// one at a time — peak memory holds a lightweight index entry per key
// (Merge, Compact and ScanFile: per stored record of their sources,
// until the fold drops the superseded), never the record set. Collect materializes a sequence for the few
// sites that truly need a slice. The normative iteration-order and
// error-in-sequence semantics are docs/FORMAT.md §9.
//
// Rewrite contract: what Merge and Compact write is the canonical
// encoding of every record they keep. Their index passes run on each
// codec's entry scan (codec.entry, in either encoding), which reads a
// stored payload's entry — and whether the payload is already canonical
// — without building the record. The index pass reads on up to
// GOMAXPROCS goroutines (sources side by side, a line-framed journal in
// sections cut just past a newline, each into its own entry list, joined
// in file order), folds the lists in source order — last wins, a
// Conflict is a disagreement with the winner at that moment — and keeps
// each source's winners in the order they were read, Merge sorting a
// list that is not already canonical. The write pass is serial: it
// fetches one winner at a time, on the caller's goroutine, through its
// source's read-ahead window, copies canonical frames between files of
// one encoding and decodes and re-encodes everything else, to the same
// bytes. An in-place Compact that would reproduce its file
// leaves it untouched (docs/FORMAT.md §1 and §7).
//
// Durability contract: Append returns only after the record's bytes are
// written and fsynced, and every append written before it is too, so a
// crash immediately after a successful Append loses nothing. AppendBatch — the optional BatchAppender side of
// the Store contract — gives a whole batch the same guarantee for one
// Write and one Sync: every record is validated before any byte is
// written, and the bytes are those of the same records appended one by
// one. A crash mid-append leaves a prefix of the appends not yet
// acknowledged — whole records and at most one torn trailing record,
// which Open truncates. A journal is fail-stop: after a failed Write or
// Sync the file is cut back to the last acknowledged append, and every
// append in flight and every later one returns that first error until
// the file is reopened, because appending past bytes a failure may have
// left half written would turn them into a corrupt interior record.
// Complete records are never rewritten in place — Compact and Merge
// write aside atomically (temp file, fsync, rename) and replace, or
// write nothing.
package runstore
