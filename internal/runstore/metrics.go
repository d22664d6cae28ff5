package runstore

import "repro/internal/obs"

// The journal layer has no configuration seam — Open takes only a path —
// so its instruments live in the process-wide default registry. All
// backends funnel persistence through Journal (the shard store wraps one
// journal per shard, the remote spool is a journal), so these series
// cover every byte the store layer writes or re-reads.
var (
	metAppends = obs.Default().Counter("runstore_appends_total",
		"Records appended across all journals in this process.")
	metAppendBytes = obs.Default().Counter("runstore_append_bytes_total",
		"Bytes of JSON lines written by journal appends, including newlines.")
	metFsyncs = obs.Default().Counter("runstore_fsyncs_total",
		"fsync calls issued by journal appends.")
	metScanRecords = obs.Default().Counter("runstore_scan_records_total",
		"Records yielded by journal scans.")
	metMergeRecords = obs.Default().Counter("runstore_merge_records_total",
		"Distinct records written by journal merges.")
	metCompactRecords = obs.Default().Counter("runstore_compact_records_total",
		"Distinct records written by journal compactions.")
	metCompactSkipped = obs.Default().Counter("runstore_compact_skipped_total",
		"In-place compactions that found the journal already compact and wrote nothing.")
	metRewriteCopied = obs.Default().Counter("runstore_rewrite_copied_records_total",
		"Winner frames merges and compactions copied from a canonical source without decoding.")
)
