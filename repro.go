// Package repro reproduces "Performance Evaluation in Database Research:
// Principles and Experiences" (Manolescu & Manegold, ICDE 2008 / EDBT 2009)
// as a Go library: the experiment-methodology pipeline the paper teaches
// (internal/design, internal/measure, internal/stats, internal/harness,
// internal/plot, internal/config, internal/sysinfo, internal/repeat),
// the run-execution subsystem (internal/sched's concurrent scheduler
// over internal/runstore's persistent run stores and regression gate),
// plus the substrates its worked examples run on (internal/vdb,
// internal/tpch, internal/hwsim, internal/netsim).
//
// This root package is the public API the perfeval CLI is built on, so
// the command line and the library cannot drift:
//
//   - Run and RunAll execute the paper's experiment drivers under a
//     context (cancellation drains the scheduler and leaves a valid,
//     warm-startable store) with a typed RunConfig covering everything
//     the CLI exposes as -D flags — workers, retries, timeouts,
//     journaled warm starts, store backends, sharding, and adaptive
//     replication.
//   - Open gives streaming read-only access to any store file — JSONL
//     journal or block-indexed archive, dispatched by content sniffing —
//     and Merge, Compact, Convert, Inspect, and Diff are the library
//     forms of the corresponding perfeval subcommands.
//
// Each workflow — a journaled warm start, adaptive replication, merging
// shards, converting to an archive, gating with Diff, and a collector
// fleet — has an Example in example_test.go whose output go test checks.
//
// The guarded API surface lives in api/repro.txt; `make check` fails
// when it changes without that file being regenerated (tools/apicheck).
package repro

import (
	"repro/internal/harness"
	"repro/internal/paperexp"
)

// Result is one regenerated table or figure of the paper.
type Result = paperexp.Result

// Experiment is one registered experiment driver; its Run function
// receives the caller's context.
type Experiment = paperexp.Entry

// Table renders aligned monospace tables — the house style every report
// in this repository uses, re-exported so CLI-grade presentation needs
// nothing beyond the public API.
type Table = harness.Table

// NewTable returns an empty Table.
func NewTable() *Table { return harness.NewTable() }

// Experiments lists every reproducible table and figure in paper order.
func Experiments() []Experiment { return paperexp.Registry() }

// SuiteInstructions renders the repeatability instructions for the whole
// experiment set — what `perfeval suite` prints.
func SuiteInstructions() string { return paperexp.PaperSuite().Instructions() }
