#!/usr/bin/env bash
# Run all six workloads and print every end-to-end metric by name, unit,
# bound and sample count. Run from anywhere; works on the checkout it is in.
#
#   perf/run.sh [--seed N]         three interleaved rounds of seed N (default 1)
#   perf/run.sh --seeds "1 2 ..."  one round per listed seed: the run-to-run spread
#                                  the way the acceptance procedure takes it
#   perf/run.sh --trace [--seed N] one traced run per workload: per-layer metrics
#                                  and span files
#   perf/run.sh --quick            <= 15 s smoke: one short round on small inputs,
#                                  all output checks
#
# A round is one run of each workload (w1..w6, w1..w6, ...), so that machine
# drift hits all workloads alike. The window is BENCHMARK.json's run_seconds.
# Every value is the median over rounds; counts must be identical in the
# rounds that share a seed, and no spread may exceed its bound, or the run fails.
set -euo pipefail
cd "$(dirname "$0")/.."

rounds=(1 1 1) trace=0 out=results extra=()
seconds=$(python3 -c 'import json; print(json.load(open("BENCHMARK.json"))["run_seconds"])')
while (($#)); do
    case "$1" in
        --seed) rounds=("$2" "$2" "$2"); shift 2 ;;
        --seeds) read -r -a rounds <<<"$2"; shift 2 ;;
        --trace) trace=1; out=layers; shift ;;
        --quick) seconds=0.5; out=quick; extra=(--scale small); shift ;;
        *) echo "run.sh: unknown argument $1" >&2; exit 2 ;;
    esac
done
# A traced or smoke run is one round.
[[ $out == results ]] || rounds=("${rounds[0]}")

mkdir -p perf/out
runs="perf/out/${PERF_OUT:-$out}.jsonl" # PERF_OUT: aa.sh keeps its two sets apart
: >"$runs"
workloads=$(python3 -c 'import json; print(" ".join(w["name"] for w in json.load(open("BENCHMARK.json"))["workloads"]))')
status=0
for r in "${!rounds[@]}"; do
    seed=${rounds[$r]}
    for w in $workloads; do
        echo "== round $((r + 1))/${#rounds[@]}  $w  seed $seed" >&2
        # The last stdout line is the result; the rest is the human report.
        if ! result=$(bash perf/bench.sh --workload "$w" --seed "$seed" --seconds "$seconds" \
            --trace "$trace" "${extra[@]}" | tee >(cat >&2) | tail -n 1); then
            status=1
        fi
        printf '{"workload": "%s", "seed": %s, "result": %s}\n' \
            "$w" "$seed" "${result:-null}" >>"$runs"
    done
done
python3 perf/report.py summary "$runs" "${runs%.jsonl}.json" || status=1
exit $status
