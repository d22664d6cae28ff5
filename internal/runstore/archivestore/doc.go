// Package archivestore is the block-indexed archive backend of the
// runstore API: one experiment's complete run history in a single
// binary file that opens in O(index) time, built for the million-run
// archives the JSONL journal cannot hold in its parse budget. It
// implements runstore.Store, so the scheduler (internal/sched) executes
// against it unchanged — warm-start replay, per-unit persistence, and
// deterministic results are backend-independent properties enforced by
// the shared conformance suite (internal/runstore/storetest).
//
// On disk an archive (version 3, Magic) is a frame log
// (internal/framelog): the magic, then checksummed frames whose payload
// leads with a block type — records, each the binary codec's payload of
// one record (runstore.AppendBinary), with an index page interleaved
// every DefaultIndexInterval records — and, once finalized by Close, a
// footer frame naming every index page plus a fixed-size trailer frame
// pointing at the footer. Opening a finalized archive reads the trailer,
// the footer, and the index pages: the in-memory index maps each
// (experiment, assignment-hash, replicate) key to its record frame's
// offset, and record payloads stay on disk until Lookup fetches one. The
// normative byte-level specification is docs/FORMAT.md.
//
// Every writer writes version 3: a live Archive, and Write — behind
// Merge, Compact, `perfeval archive` and repro.Convert, whose .arch and
// .archz destinations are the same file — which writes the bytes an
// Archive appending the same records would. Versions 1 and 2 (JSON,
// flate-compressed JSON and binary record blocks in a framing of their
// own) are still read by every reader, through one legacy path, and are
// read-only: Append on one fails and names the conversion that upgrades
// it.
//
// Concurrency contract: an Archive's methods are safe for concurrent
// use within one process (one mutex guards file and index). The file
// itself is single-writer: exactly one process may have an archive open
// for writing; concurrent readers of a finalized archive (OpenReader,
// Inspect, a closed Archive's Lookup) are safe.
//
// Durability contract: Append commits one frame — written and fsynced —
// before returning, so a crash after a successful Append loses nothing.
// A crash before Close loses only the footer: Open finds no valid
// trailer and recovers through framelog — every frame replayed, a
// record's key read from its payload's first three fields and nothing
// else decoded, a torn tail truncated — exactly as the journal recovers.
// Index pages and footer are derivable from the record frames; only those
// are load-bearing.
package archivestore
