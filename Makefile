GO ?= go

# The default target is what CI runs on every PR: vet plus the full test
# suite under the race detector, so the concurrent scheduler
# (internal/sched) and the journal (internal/runstore) are race-checked
# on every change, plus the public-API compatibility gate and the golden
# corpus check. Its last line is its wall time, so the suite's cost is
# seen on every run.
.PHONY: check
check:
	@start=$$(date +%s); \
	$(MAKE) --no-print-directory vet race apicheck golden-check || exit 1; \
	echo "make check: ok in $$(( $$(date +%s) - start )) s wall"

# The on-disk format corpus is written once per format version and never
# regenerated: testdata/golden/SHA256SUMS pins every file's bytes, so a
# test or a tool that rewrites one fails here. A new format version adds
# its file and its line; no existing line changes.
.PHONY: golden-check
golden-check:
	cd testdata/golden && sha256sum -c --quiet SHA256SUMS

# API-compatibility gate: the exported surface of the public repro
# package must match api/repro.txt. Intentional API changes regenerate
# the golden file with `make apicheck-update` — an explicit, reviewable
# diff instead of silent drift.
.PHONY: apicheck
apicheck:
	$(GO) run ./tools/apicheck

.PHONY: apicheck-update
apicheck-update:
	$(GO) run ./tools/apicheck -update

.PHONY: build
build:
	$(GO) build ./...

.PHONY: vet
vet:
	$(GO) vet ./...

.PHONY: test
test:
	$(GO) test ./...

# -shuffle=on randomizes test order so inter-test coupling (shared
# default registries, leftover env) surfaces in CI instead of in prod.
.PHONY: race
race:
	$(GO) test -race -shuffle=on ./...

# Merge and Compact read their sources side by side, and a line-framed
# journal in sections, on up to GOMAXPROCS goroutines, so the rewrite tests
# and the entry scans' are raced at a processor count that does not depend
# on the machine running them: 1 (everything inline, one section per
# source) and 4 (several sections per source). So are the tests
# of the two places a fleet worker and its daemon wait on each other — the
# held acquire, and the spool commit that runs beside the ingest of the
# same batch — whose interleavings differ most between one processor and
# several — and the live gate, which summarizes the shard journals the
# daemon's committers are appending to while two workers stream. So, last,
# are the warehouse's Refresh, ingest and query tests: Refresh ingests
# changed sources on up to GOMAXPROCS goroutines, the scratch an ingest
# folds a source in passes between them through a sync.Pool, and queries
# share the warehouse's t-quantile slot and its one sorted live view while
# refreshes and prunes replace the runs under them (a Put replaces the
# view, never edits it); the tests that race queries against those changes
# run ten times over.
# And the commit tests, twenty times over: concurrent commits to one log
# overlap their syncs and settle in write order, and a failed sync with
# others in flight poisons the log and cuts it back, interleavings that
# one processor and four order differently and one run may miss. And the
# scheduler's committer: a held AppendBatch with a backlog queued behind
# it, landed in batches of at most sched.MaxBatch. And the journal's
# conformance subtests that scan and append at once, twenty times over:
# the index is a slice of records that an append may grow or overwrite
# under a scan that holds only its length (-run matches top-level names,
# so the first line runs none of a conformance suite's subtests).
.PHONY: race-cpu
race-cpu:
	$(GO) test -race -cpu 1,4 -count=20 -run 'Commit|Poison|Concurrent' ./internal/framelog ./internal/runstore/...
	$(GO) test -race -cpu 1,4 -count=20 -run 'TestJournalConformance/(Concurrent|ScanDuringAppend|ScanEarlyBreak)' ./internal/runstore
	$(GO) test -race -cpu 1,4 -run 'Merge|Compact|ScanFile|Entries|Section|Inspect' ./internal/runstore/...
	$(GO) test -race -cpu 1,4 -run 'HeldAcquire|OldWorkerNewDaemon|NewWorkerOldDaemon|SpoolAndCollectorDisagree|RemoteStore|GateWhileWorkersStream' ./internal/collector ./internal/collector/client
	$(GO) test -race -cpu 1,4 -run 'Refresh|Ingest|Quer|Prune|View' ./internal/warehouse
	$(GO) test -race -cpu 1,4 -count=10 -run 'TestConcurrentQueriesAndIndexChanges|TestConcurrentQueryRefresh|TestQueryViewFollowsPut' ./internal/warehouse
	$(GO) test -race -cpu 1,4 -run 'Backlog' ./internal/sched

.PHONY: bench
bench:
	$(GO) test -bench=. -benchtime=1x -run=^$$ ./...

# bench/ is its own module (repro/bench, importing repro/internal/...), so
# nothing above compiles it and an internal-API change can break the
# repo's benchmark silently. This vets and tests it, then runs four
# workloads for two seconds each the way the driver does: local-run, the
# one gated workload that drives the scheduler through a five-method
# store (the persist stage's per-record width); fleet-collect, the
# longest journey; warehouse-query, the gated read path (cold refresh,
# reopen, the query mix) over every at-rest format; and ingest-burst,
# which drives the daemon's ingest and group commit hardest and is gated
# nowhere else. The benchmark checks its own output (byte identity
# included; on warehouse-query that the reopened warehouse skips every
# source and the tracked cell's history matches the inputs) and says so in
# the last line it prints.
.PHONY: bench-e2e-smoke
bench-e2e-smoke:
	cd bench && $(GO) vet ./... && $(GO) test ./...
	for w in local-run fleet-collect warehouse-query ingest-burst; do \
		out=$$(bash bench/run.sh --workload $$w --seed 1 --seconds 2 --trace 0) || exit 1; \
		echo "$$out" | tail -n 1 | grep -q '"correct":true' || \
			{ echo "$$out" | tail -n 5; echo "bench-e2e-smoke: the last line of $$w does not say \"correct\":true"; exit 1; }; \
	done

# Documentation lint, run by CI: broken intra-repo links, `go run` /
# `go test` commands naming a missing directory, and code spans naming a
# `pkg.Name` its repo package does not declare, in README, docs/ and the
# verify skill; exported identifiers missing doc comments in the
# subsystem packages; and a Go comment naming a markdown file that does
# not exist, fail the build. go vet first — parse errors should name
# themselves, not surface as lint noise.
.PHONY: docs-check
docs-check:
	$(GO) vet ./...
	$(GO) run ./tools/docscheck

# Short native-fuzz smoke over the store parsers: arbitrary byte
# streams must never panic Open, complete records must round-trip, and
# the hand-written JSON record codec must agree with encoding/json on
# every input (FuzzJSONCodec — the differential that lets it stand in
# for json.Marshal/Unmarshal on the record path — and, with
# FuzzBinaryDecode, holds each codec's field pass to its decoder, the
# binary walk to the decoder it replaced), and each codec's entry
# scan must agree with decoding on every payload, its canonical verdict
# true exactly when re-encoding reproduces the bytes (FuzzEntryScan —
# what lets Merge and Compact copy a frame), the hand-written run
# document codec of the warehouse index must agree with encoding/json on
# every input (FuzzIndexCodec), the archive's streaming walk must
# agree with Archive.Open + Scan over arbitrary bytes after any
# version's magic, every record block type judged by one torn-or-corrupt
# rule (FuzzArchiveReader), and the warehouse's single-pass ingest must
# equal its record-per-frame reference, errors included, over frame
# sequences written in three formats (FuzzIngest), and the index pass over
# a journal read in sections must equal the one-section pass, errors,
# Info and canonical verdict included, over arbitrary bytes
# (FuzzSectionedScan), and perfeval's property binder must never panic
# and either fail or bind only the command's own keys, the same way
# twice, over arbitrary argument vectors (FuzzPropertyArgs), and the
# cursor's number conversion, exact for a plain decimal of up to 19
# digits, must give strconv.ParseFloat's value bits, consumed length and
# failure over arbitrary bytes (FuzzNum). `go test
# -fuzz` takes one target per invocation, so the fuzzers run back to
# back. CI runs
# this on every push; crank FUZZTIME locally for a deeper soak.
FUZZTIME ?= 10s
.PHONY: fuzz
fuzz:
	$(GO) test -fuzz=FuzzJournalParse -fuzztime=$(FUZZTIME) -run=^$$ ./internal/runstore
	$(GO) test -fuzz=FuzzBinaryDecode -fuzztime=$(FUZZTIME) -run=^$$ ./internal/runstore
	$(GO) test -fuzz=FuzzJSONCodec -fuzztime=$(FUZZTIME) -run=^$$ ./internal/runstore
	$(GO) test -fuzz=FuzzEntryScan -fuzztime=$(FUZZTIME) -run=^$$ ./internal/runstore
	$(GO) test -fuzz=FuzzWarehouseIndex -fuzztime=$(FUZZTIME) -run=^$$ ./internal/warehouse
	$(GO) test -fuzz=FuzzIndexCodec -fuzztime=$(FUZZTIME) -run=^$$ ./internal/warehouse
	$(GO) test -fuzz=FuzzArchiveReader -fuzztime=$(FUZZTIME) -run=^$$ ./internal/runstore/archivestore
	$(GO) test -fuzz=FuzzIngest -fuzztime=$(FUZZTIME) -run=^$$ ./internal/warehouse
	$(GO) test -fuzz=FuzzSectionedScan -fuzztime=$(FUZZTIME) -run=^$$ ./internal/runstore
	$(GO) test -fuzz=FuzzPropertyArgs -fuzztime=$(FUZZTIME) -run=^$$ ./cmd/perfeval
	$(GO) test -fuzz=FuzzNum -fuzztime=$(FUZZTIME) -run=^$$ ./internal/canonjson

.PHONY: cover
cover:
	$(GO) test -cover ./...

# Fault-injection soak: a worker fleet collects one experiment while
# the daemon is killed and restarted mid-ingest, workers are killed
# mid-stream, connections are torn, and a tiny ingest budget forces a
# 429 storm; the merged+compacted store must stay byte-identical to a
# single-process run. `soak` runs the full schedule, `soak-short` is
# the ~seconds smoke CI runs on every push. Both race-checked.
.PHONY: soak
soak:
	SOAK_FULL=1 $(GO) test -race -count=1 -v -run 'TestSoak$$' -timeout 10m ./internal/collector/soaktest

.PHONY: soak-short
soak-short:
	$(GO) test -race -count=1 -short -run 'TestSoak$$' -timeout 5m ./internal/collector/soaktest
