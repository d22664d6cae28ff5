#!/usr/bin/env bash
# One complete set of runs, as the driver makes them: ten seeds of every
# gated workload, round-robin across workloads so a slow phase of the
# shared machine costs one run of each instead of every run of one.
# Appends one result document per run to the file named by the first
# argument:
#
#   bash bench/aa.sh .bench_build/a.jsonl        # seeds 1..10
#   bash bench/aa.sh .bench_build/b.jsonl 11     # seeds 11..20
#   .bench_build/bench -compare .bench_build/a.jsonl .bench_build/b.jsonl
#
# Workloads named after the first seed replace the gated three, e.g. to
# measure the two the driver does not run:
#
#   bash bench/aa.sh .bench_build/c.jsonl 1 ingest-burst finish-pipeline
set -euo pipefail

out=${1:?usage: bash bench/aa.sh <result file> [first seed [workload ...]]}
first=${2:-1}
shift $(($# < 2 ? $# : 2))
[ $# -gt 0 ] || set -- local-run fleet-collect warehouse-query
for seed in $(seq "$first" $((first + 9))); do
  for workload in "$@"; do
    bash bench/run.sh --workload "$workload" --seed "$seed" --trace 0 --out "$out" | tail -n 1
  done
done
