// Package archivestore is the block-indexed archive backend of the
// runstore API: one experiment's complete run history in a single
// binary file that opens in O(index) time, built for the million-run
// archives the JSONL journal cannot hold in its parse budget. It
// implements runstore.Store, so the scheduler (internal/sched) executes
// against it unchanged — warm-start replay, per-unit persistence, and
// deterministic results are backend-independent properties enforced by
// the shared conformance suite (internal/runstore/storetest).
//
// On disk an archive is a header, a stream of checksummed blocks —
// length-prefixed records, with an index page interleaved every
// DefaultIndexInterval records — and, once finalized by Close, a footer
// block naming every index page plus a fixed-size trailer pointing at
// the footer. Opening a finalized archive reads the trailer, the
// footer, and the index pages: the in-memory index maps each
// (experiment, assignment-hash, replicate) key to its block's offset,
// and record payloads stay on disk until Lookup fetches one. The
// normative byte-level specification is docs/FORMAT.md; the versioning
// policy lives in the magic strings.
//
// There are two versions, and every reader reads both. Version 1
// (Magic, TrailerMagic) is what a new live Archive and Write produce:
// each record block holds key fields and the record's JSON document.
// Version 2 (MagicV2, TrailerMagicV2) is what WriteCompressed produces
// for .archz destinations: each record block holds the binary codec's
// payload of one record (runstore.AppendBinary), whose first three
// fields are its key — the smaller file, and the cheaper one to read and
// write. Blocks of flate-compressed JSON, what .archz files held before
// version 2, are still read and no longer written.
//
// Concurrency contract: an Archive's methods are safe for concurrent
// use within one process (one mutex guards file and index). The file
// itself is single-writer: exactly one process may have an archive open
// for writing; concurrent readers of a finalized archive (Load,
// Inspect, a closed Archive's Lookup) are safe.
//
// Durability contract: Append writes one checksummed block and fsyncs
// before returning, so a crash after a successful Append loses nothing.
// A crash before Close loses only the footer: Open detects the missing
// or invalid trailer, rebuilds the index by scanning block checksums —
// record keys lead every record payload, so recovery parses no document —
// and truncates the torn tail past the last valid block, exactly as the
// journal truncates a torn line. Index pages and footer are derivable
// from the data blocks; only record blocks are load-bearing.
package archivestore
