#!/usr/bin/env bash
# A/A check: two full sets of runs of the same build must agree on every
# end-to-end metric within the bound BENCHMARK.json records — timings by
# their medians, counts exactly. Prints the offending workload/metric and
# exits 1 otherwise. Takes run.sh's --seed.
set -euo pipefail
cd "$(dirname "$0")/.."

PERF_OUT=aa_a bash perf/run.sh "$@"
PERF_OUT=aa_b bash perf/run.sh "$@"
python3 perf/report.py compare perf/out/aa_a.json perf/out/aa_b.json
