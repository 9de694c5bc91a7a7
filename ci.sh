#!/usr/bin/env bash
# Repo CI gate, in stage order:
#   1. cargo fmt --check
#   2. cargo clippy (workspace, all targets, -D warnings, plus
#      clippy::too_many_lines at clippy.toml's 200-line threshold)
#   3. rustdoc with broken intra-doc links denied (workspace, no deps)
#   4. locked release build
#   5. every package under shims/ is still a dependency of something
#   6. cargo test --workspace --no-fail-fast (every crate's unit,
#      integration and prop_* suites plus the shims)
#   7. the thread-based tests, four copies at a time: vdce-dsm's 50
#      times, tests/concurrency.rs once, vdce-repository's, the Data
#      Manager's and the message bus's 50 times
#   8. BENCH_*.json artifact schema validation
#   9. the deterministic paper tables (exp_fig2, exp_fig4, exp_e5,
#      exp_e9) byte-equal to their golden text in crates/bench/golden/
#   10-16. the correctness gates: fault recovery, durable recovery,
#      scale, stream, fuzz, data-aware (all --quick) and trace
#      determinism (--all) — none of them times anything
#   17. the vdce_perf smoke (perf/run.sh --quick)
#   18-23. the frozen benchmark's full-size checks the smoke scales away
#      (stream_backlog seed 2, stream_steady seed 1, batch_wide seed 1,
#      batch_data seed 1, incr_churn seed 1, durable_faults seed 1). Each
#      also holds `allocs_per_op` — an exact count, identical in every
#      pass and run — under a ceiling (1,500, 1,250, 500, 10,000, 250 and
#      365,000). ROADMAP item 2's committed BENCH_perf.json
#      equality gate supersedes these ceilings when the `[benchmark]`
#      window opens.
# Run from the repo root: ./ci.sh
set -euo pipefail
cd "$(dirname "$0")"

STAGE_NAMES=()
STAGE_SECS=()
CURRENT_STAGE=""
TIMINGS_FILE="ci_stage_timings.md"

# Print the stage-timing table and write it to $TIMINGS_FILE (markdown,
# for the workflow step summary). Runs from the EXIT trap so a failing
# stage still reports the partial table and the name of the stage that
# died — under `set -e` the old end-of-script summary loop was silently
# skipped on any failure.
print_timings() {
    local status=$1
    {
        echo "| stage | seconds |"
        echo "| --- | ---: |"
        for i in "${!STAGE_NAMES[@]}"; do
            echo "| ${STAGE_NAMES[$i]} | ${STAGE_SECS[$i]} |"
        done
        if [[ $status -ne 0 && -n "$CURRENT_STAGE" ]]; then
            echo "| **FAILED: ${CURRENT_STAGE}** | (exit $status) |"
        fi
    } > "$TIMINGS_FILE"

    echo
    echo "stage timings:"
    for i in "${!STAGE_NAMES[@]}"; do
        printf '  %-36s %4ds\n' "${STAGE_NAMES[$i]}" "${STAGE_SECS[$i]}"
    done
    if [[ $status -ne 0 ]]; then
        if [[ -n "$CURRENT_STAGE" ]]; then
            echo "CI FAILED during stage: $CURRENT_STAGE (exit $status)"
        else
            echo "CI FAILED (exit $status)"
        fi
    else
        echo "CI OK"
    fi
}
trap 'print_timings $?' EXIT

stage() {
    local name="$1"
    shift
    CURRENT_STAGE="$name"
    echo "==> $name"
    local t0
    t0=$(date +%s)
    "$@"
    local t1
    t1=$(date +%s)
    STAGE_NAMES+=("$name")
    STAGE_SECS+=($((t1 - t0)))
    CURRENT_STAGE=""
}

stage "cargo fmt --check" cargo fmt --check
stage "cargo clippy" cargo clippy --workspace --all-targets -- -D warnings -W clippy::too_many_lines
# Doc-link gate: a renamed or made-private item leaves crate docs
# pointing at nothing, and plain `cargo doc` only warns about it.
doc_links() {
    RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links" \
        cargo doc --workspace --no-deps --offline
}
stage "rustdoc intra-doc links" doc_links
stage "cargo build --release --locked" cargo build --release --locked
# Orphaned-shim gate: a shim nothing depends on still builds, tests and
# lints as a workspace member, so it lingers unnoticed. Every package
# under shims/ must show up below some other package (depth >= 1) in
# the workspace dependency tree.
shims_in_use() {
    local deps name orphans=0
    deps=$(cargo tree --workspace --offline --prefix depth | sed -n 's/^[1-9][0-9]*\([^ ]*\) .*/\1/p' | sort -u)
    for manifest in shims/*/Cargo.toml; do
        name=$(sed -n 's/^name = "\(.*\)"/\1/p' "$manifest" | head -n 1)
        if ! grep -qx "$name" <<<"$deps"; then
            echo "shim \`$name\` ($(dirname "$manifest")) is a dependency of no package: delete it"
            orphans=1
        fi
    done
    return $orphans
}
stage "shims in use" shims_in_use
# --no-fail-fast: one failing suite must not hide the suites after it.
stage "cargo test --workspace" cargo test --workspace -q --no-fail-fast
# Race stress: the DSM coherence protocol's miss paths once released the
# directory before installing the page, and lost an invalidation only
# when a loaded machine preempted a thread inside that window — one run
# of the suite above almost never did. Four copies of the threaded tests
# at a time on however few cores there are failed most of 50 batches
# with that bug in. The other thread-based tests get the same treatment:
# `tests/concurrency.rs` (one batch: its four copies keep two cores busy
# for ~3 s), the repository's parallel sample writers, and the Data
# Manager's and the message bus's cross-thread channels (std::sync::mpsc;
# the TCP test's proxy thread pumps a bounded `sync_channel`).
#   race_stress <batches> <cargo test selector...> -- <test names...>
race_stress() {
    local batches=$1 selector=() bin batch pid failed
    shift
    while [[ $1 != -- ]]; do
        selector+=("$1")
        shift
    done
    shift
    bin=$(cargo test "${selector[@]}" --no-run --offline 2>&1 |
        sed -n 's/.*Executable.*(\(.*\))$/\1/p')
    if [[ ! -x "$bin" ]]; then
        echo "could not find the test binary of \`${selector[*]}\` (got \`$bin\`)"
        return 1
    fi
    if [[ $("$bin" --list "$@" 2>/dev/null | grep -c ': test$') -ne $# ]]; then
        echo "$bin does not list exactly the $# tests named: $*"
        return 1
    fi
    for batch in $(seq 1 "$batches"); do
        local pids=()
        for _ in 1 2 3 4; do
            "$bin" -q "$@" >/dev/null 2>&1 &
            pids+=($!)
        done
        failed=0
        for pid in "${pids[@]}"; do
            wait "$pid" || failed=1
        done
        if ((failed)); then
            echo "batch $batch of $batches: a threaded test failed; rerun with"
            echo "  $bin $*"
            return 1
        fi
    done
}
thread_stress() {
    race_stress 50 -p vdce-dsm --lib -- \
        concurrent_siege_converges disjoint_pages_do_not_interfere \
        lock_serialises_read_modify_write_on_dsm barrier_releases_all_and_counts_generations \
        exactly_one_leader_per_generation
    race_stress 1 -p vdce --test concurrency -- concurrent_submissions_all_succeed \
        concurrent_apps_contend_for_the_single_host monitoring_during_submissions
    race_stress 50 -p vdce-repository --lib -- concurrent_samples_are_all_applied
    # Qualified: a bare `dropped_sender_closes_channel` also matches
    # `tcp_dropped_sender_closes_channel`.
    race_stress 50 -p vdce-runtime --lib -- inproc_round_trip \
        data_manager::tests::dropped_sender_closes_channel cross_thread_tcp_transfer
    race_stress 50 -p vdce-net --lib -- cross_thread_delivery
}
stage "thread race stress (5 binaries)" thread_stress
# Artifact schema gate: every checked-in BENCH_*.json must validate
# against the vdce-obs RunArtifact schema, and none may be missing.
stage "artifact schema validation" \
    cargo run -q --release -p vdce-bench --bin exp_artifacts
# Paper-table gate: exp_fig2, exp_fig4, exp_e5 and exp_e9 read no clock,
# so they print the same bytes on every run. Their stdout is pinned under
# crates/bench/golden/; a change that moves one of their numbers on
# purpose re-records the file in the same commit.
paper_golden() {
    local bin failed=0
    for bin in exp_fig2 exp_fig4 exp_e5 exp_e9; do
        if ! cargo run -q --release -p vdce-bench --bin "$bin" |
            diff -u "crates/bench/golden/$bin.txt" -; then
            echo "$bin: stdout differs from crates/bench/golden/$bin.txt"
            failed=1
        fi
    done
    return $failed
}
stage "paper tables (golden)" paper_golden
# Fault recovery gate: every quick fault scenario must replay
# deterministically and recover.
stage "fault recovery gate (--quick)" \
    cargo run -q --release -p vdce-bench --bin exp_faults -- --quick
# Durable control-plane gate: every named fault scenario is replayed
# with WAL journaling + deputy replication on, then killed and
# restarted at several points (including mid-write, torn tail). The
# durable report must be bit-identical to the plain run, recovery must
# lose zero control-plane state, and no deputy may diverge.
stage "durable recovery gate (--quick)" \
    cargo run -q --release -p vdce-bench --bin exp_recovery -- --quick
# Scale gate: on the 10k-task / 8-site config the incremental
# reschedule of one monitor event must stay bit-identical to a full
# re-walk.
stage "scale gate (--quick)" \
    cargo run -q --release -p vdce-bench --bin exp_scale -- --quick
# Streaming service gate: the acceptance cell must replay bit-identically
# twice, reproduce the placements digest recorded in exp_stream.rs
# (`QUICK_PLACEMENTS_DIGEST`; a change that moves placements on purpose
# re-records it), keep p99 time-to-placement (logical time) under the
# ceiling, and starve no tenant past the aging bound.
stage "stream gate (--quick)" \
    cargo run -q --release -p vdce-bench --bin exp_stream -- --quick
# Fuzz gate: a fixed seed block of generated adversarial cases must pass
# every invariant; the injected-violation self-tests must shrink to
# 1-minimal reproducers deterministically; and the three promoted fuzz
# regression scenarios must replay bit-identically twice.
stage "fuzz gate (--quick)" \
    cargo run -q --release -p vdce-bench --bin exp_fuzz -- --quick
# Data-aware scheduling gate: joint compute+transfer placement must beat
# the parent-site-only ablation on the pipeline scenario by the fixed
# margin, degrade bit-identically when every dataset has one co-located
# replica, replay bit-identically (allocation tables and catalog WAL),
# and trip zero storage-capacity violations.
stage "data-aware gate (--quick)" \
    cargo run -q --release -p vdce-bench --bin exp_data -- --quick
# Observability gate: replay every quick scenario twice with tracing on;
# the JSONL trace must validate against the schema and the trace,
# deterministic metric snapshot, and recovery report must all be
# bit-identical across the two runs.
stage "trace determinism gate (--all)" \
    cargo run -q --release -p vdce-bench --bin exp_trace -- --all
# Benchmark smoke: perf/ is a package of its own that nothing above
# compiles, and it imports library entry points by name. Building it and
# running every workload's output checks on small inputs here means a
# renamed entry point or a wrong result breaks CI, not the next
# benchmark run.
stage "vdce_perf smoke (--quick)" bash perf/run.sh --quick
# Full-size stream checks: the smoke above runs the stream workloads
# scaled down, where their sizing contract (pending_max <= 8 steady,
# >= 100 backlog) is not checked. A drift in how the service prices or
# queues submissions shows first as that contract failing at full size —
# stream_backlog seed 2 sits closest to its edge. perf is already built
# by the smoke; a non-zero exit fails the stage. Both stages also hold
# `allocs_per_op` under a ceiling: see `perf_allocs_at_most` below.
# Full-size batch check: batch_wide's bit-identity checks (every op's
# table and makespan against the one-call reference, optimised ==
# sequential on the 2k down-scale) likewise run only scaled down in the
# smoke; the 40k-task graph is where a reordered walk, table fill or
# simulation would first show.
#
# These stages, the stream ones above, incr_churn's and durable_faults'
# also read `allocs_per_op` off the run's JSON result line. The count is the
# benchmark's own allocator's, identical in every pass and run, so a
# ceiling on it has no noise to allow for: batch_wide makes 272 calls per
# 40k-task op with the allocation table as dense rows sharing their names
# with the AFG (a name and a share of a tree node per task made it
# 47,081), incr_churn 152 per monitor event with host-selection outputs
# as shared dense tables (a per-site re-index made it 8,232). batch_data,
# whose 4k tasks each form their own task class, makes 8,230 with one
# choice list per site table and dataset replica lists borrowed from the
# catalog view; a heap object per class, or a replica-list clone per
# dataset input, made it 48,240. The stream stages count one arrival
# (host selection at up to 64 sites, placement, dispatch) and, for
# stream_backlog, the re-selection of every queued submission at a site
# whose load moved: 827 for stream_steady seed 1 and 1,142 for
# stream_backlog seed 2 with the prediction memo's host-side terms as
# dense rows per site and one lane list per host-selection call. A
# host-name `String` per memoised term and a lane vector per eligibility
# group made them 1,616 and 1,896; each ceiling sits about halfway.
# durable_faults counts one 17-scenario sweep (~13.1k journal records):
# 352,364 with the monitoring chain passing its reports and control
# messages by value, each record framed once into the journal's log,
# recovered records borrowed from the kill image and the resumed state
# compared with the seal as it streams. A Monitor daemon that also sent a
# clone of each report down a channel to its Group Manager made it
# 377,373; `read_wal` / `recover` copying every record into a `Vec<u8>`
# and a `String` pair with the resume leg serialising into a buffer,
# 404,546 (431,736 when the journal also kept each record as a
# `(String, String)` pair); the ceiling sits about halfway.
#   perf_allocs_at_most <ceiling> <workload> [seed, default 1]
perf_allocs_at_most() {
    local ceiling=$1 workload=$2 seed=${3:-1} out allocs
    out=$(bash perf/bench.sh --workload "$workload" --seed "$seed" --seconds 1 --trace 0)
    echo "$out"
    allocs=$(tail -n 1 <<<"$out" |
        sed -n 's/.*"allocs_per_op": {"value": \([0-9.eE+-]*\),.*/\1/p')
    if [[ -z "$allocs" ]]; then
        echo "$workload: no metrics.allocs_per_op.value in the result line"
        return 1
    fi
    if ! awk -v a="$allocs" -v c="$ceiling" 'BEGIN { exit !(a <= c) }'; then
        echo "$workload: allocs_per_op $allocs is above the ceiling of $ceiling"
        return 1
    fi
    echo "$workload: allocs_per_op $allocs <= $ceiling"
}
stage "vdce_perf stream_backlog (seed 2)" perf_allocs_at_most 1500 stream_backlog 2
stage "vdce_perf stream_steady (seed 1)" perf_allocs_at_most 1250 stream_steady
stage "vdce_perf batch_wide (seed 1)" perf_allocs_at_most 500 batch_wide
stage "vdce_perf batch_data (seed 1)" perf_allocs_at_most 10000 batch_data
# Full-size incremental check: incr_churn compares the standing table
# with a full re-walk on every 64th event, and with the initial table
# once every host has healed. The smoke absorbs a twentieth of the
# events into a twentieth of the tasks; the 10k-task, 512-event pass is
# where a diff that misses a slot or a row rewritten wrongly would show.
stage "vdce_perf incr_churn (seed 1)" perf_allocs_at_most 250 incr_churn
# Full-size durable check: durable_faults asserts, per fault scenario,
# durable replay == plain replay, zero deputy divergences, and that four
# kills (three with a torn tail) each recover, replay and resume to the
# sealed bytes — which is also the one place the live snapshot writer
# and the typed `ControlState` writer are held to the same bytes. The
# smoke runs 3 of the 17 scenarios.
stage "vdce_perf durable_faults (seed 1)" perf_allocs_at_most 365000 durable_faults
