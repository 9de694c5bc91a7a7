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
#   7. the oracles at depth, in release: the scheduler oracle's property
#      tests (vdce-sched's prop_sched, prop_data and prop_incremental) on
#      1,024 cases each from a fixed PROPTEST_SEED, ten more property
#      files on 1,024 from the same seed (prop_afg, prop_dsm, prop_net,
#      prop_predict, prop_repo, prop_kernels, prop_checkpoint,
#      prop_faults, prop_partition and prop_wal), the scenario fuzzer's
#      (vdce-sim's prop_fuzz: the shrink contract, and the sweep and the
#      shrinker's oracle agreeing on every invariant) on 64 from the same
#      seed, and the JSON codec's differential suite (serde_json's
#      tests/differential.rs) on 4,096 cases per property
#      (DIFFERENTIAL_CASES; 400 under a bare cargo test)
#   8. the thread-based tests, four copies at a time: vdce-dsm's 50
#      times, tests/concurrency.rs once, vdce-repository's, the Data
#      Manager's and the message bus's 50 times
#   9. every experiment (exp --check): the deterministic paper tables
#      (E2, E4, E5, E9) byte-equal to their EXPERIMENTS.md blocks, every
#      committed BENCH_*.json schema-valid and equal to a fresh run
#      outside its `wall_clock` section, none missing or stray, DESIGN.md's
#      `surface` block equal to the tree, and the claims of every
#      experiment, the correctness gates included; then the five
#      examples under examples/, each asserting its output
#   10. the vdce_perf smoke (perf/run.sh --quick) and perf/'s unit tests
#   11-16. the frozen benchmark's full-size checks the smoke scales away
#      (stream_backlog seed 2, stream_steady seed 1, batch_wide seed 1,
#      batch_data seed 1, incr_churn seed 1, durable_faults seed 1). Each
#      also holds `allocs_per_op` — an exact count, identical in every
#      pass and run — under the ceiling its stage names at the end of
#      this file. ROADMAP item 4's committed BENCH_perf.json
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
# Scheduler oracle sweep: the suite above draws 64 cases per property
# from each test's name-derived stream; this draws 1,024 more from
# another stream (the shim XORs PROPTEST_SEED into it), in release. All
# but the allocation-table model test draw their cases from the oracle's
# generator (`crates/sched/tests/common/`). A failure prints the
# PROPTEST_CASES that replays it under this seed. The scenario fuzzer's
# properties replay whole fault scenarios per case, so they draw 64
# (~2.5 s of tests). The ten other property files that pass at depth
# draw 1,024 each from the same seed (~5 s of tests); prop_stream is not
# among them, since its aging-bound property fails at depth (ROADMAP
# item 17), and prop_obs holds no properties. The codec's differential
# suite (writer vs reference
# renderer, typed read vs read through a `Value`, damaged documents)
# then runs ten times its default
# case count; each case is its own fixed seed and a failure prints the
# `check_case` call that replays it.
oracle_sweep() {
    PROPTEST_CASES=1024 PROPTEST_SEED=35 cargo test -q --release --offline \
        -p vdce-sched --test prop_sched --test prop_data --test prop_incremental
    PROPTEST_CASES=1024 PROPTEST_SEED=35 cargo test -q --release --offline \
        -p vdce-afg --test prop_afg -p vdce-dsm --test prop_dsm \
        -p vdce-net --test prop_net -p vdce-predict --test prop_predict \
        -p vdce-repository --test prop_repo -p vdce-runtime --test prop_kernels \
        -p vdce-sim --test prop_checkpoint --test prop_faults --test prop_partition \
        -p vdce-store --test prop_wal
    PROPTEST_CASES=64 PROPTEST_SEED=35 cargo test -q --release --offline \
        -p vdce-sim --test prop_fuzz
    DIFFERENTIAL_CASES=4096 cargo test -q --release --offline \
        -p serde_json --test differential
}
stage "oracles at depth (1,024 x 13 / 64 / 4,096)" oracle_sweep
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
# Experiment gate: `exp --check` runs every experiment once, in memory,
# and writes nothing it compares against.
# - E2, E4, E5 and E9 read no clock, so EXPERIMENTS.md holds them as
#   golden text (the `paper_tables` test checks the same under the bare
#   `cargo test -q`); the other six paper experiments check the shape
#   claims EXPERIMENTS.md makes for them.
# - data, faults, fuzz, recovery, scale and stream regenerate their
#   BENCH_*.json: each committed file must be schema-valid and equal to
#   the fresh artifact everywhere outside its `wall_clock` section, and
#   a missing or stray BENCH_*.json fails the stage.
# - surface reads crates/*/src: DESIGN.md §4's block (each crate's files,
#   non-test and `pub fn` line counts, the `pub fn`s no other package
#   names) must equal it, so a new or narrowed `pub fn` fails the stage
#   until `exp --write surface` re-records the block.
# - Every experiment's gates are claims, checked on its full sweep: fault
#   replay determinism, recovery, the 2x crash bound, the checkpoint
#   pairs and failover/replica (faults); durable == plain, 12 kills per
#   scenario, no divergence and the FileWal fixture (recovery);
#   incremental == re-walk at 10k/8 and 100k/64 (scale); the pinned
#   placements digest, double replay, p99 time-to-placement and no
#   starved tenant (stream); all 48 seeds, the shrinker self-tests and
#   the promoted scenarios (fuzz); the data-aware margin, co-located
#   replica identity, replay and zero violations (data); and trace schema
#   and double-replay identity over all 17 fault scenarios (trace).
# A change that moves a committed number on purpose re-records it with
# `exp --write <name>`.
# The same stage runs the five examples, each of which asserts what it
# prints. fault_tolerance is the one program outside `exp` that runs the
# fault replay's checkpoint-restart and a DSM snapshot/restore end to
# end; the other four submit through `Session::submit`.
experiments() {
    cargo run -q --release --offline -p vdce-bench --bin exp -- --check
    local example
    for example in c3i_pipeline editor_roundtrip fault_tolerance parameter_study quickstart; do
        echo "--- example $example"
        cargo run -q --release --offline --example "$example" >/dev/null
    done
}
stage "experiments (exp --check) and examples" experiments
# Benchmark smoke: perf/ is a package of its own that nothing above
# compiles, and it imports library entry points by name. Building it and
# running every workload's output checks on small inputs here means a
# renamed entry point or a wrong result breaks CI, not the next
# benchmark run.
# perf/'s own unit tests run here too, after the smoke has built perf/
# and written its lock file: nothing above compiles them, and
# `decomposed_pass_equals_one_call_pass_and_checks_hold` holds the
# traced layer calls to the one-call pass.
perf_smoke() {
    bash perf/run.sh --quick
    cargo test -q --release --offline --locked --manifest-path perf/Cargo.toml
}
stage "vdce_perf smoke (--quick)" perf_smoke
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
# ceiling on it has no noise to allow for: batch_wide makes 205 calls per
# 40k-task op with one edge index per schedule, shared by the level pass
# and the walk, each level rank held in one buffer (211 with an edge
# index per level pass and a rank-to-task and a task-to-rank vector per
# rank), with the allocation table as dense rows sharing their names
# with the AFG, the task classes indexed once per schedule, one
# host-selection scratch per schedule, each site's selection collecting
# no host vector and allocating its choice table once (219 with a host
# vector and a choice vector inside an `Arc` per site), the walk's
# and the simulator's ready sets as a level rank and a bitset, and the
# edge index built without cursor copies (227 with a scratch per site;
# 266 with ready heaps and two
# cursor copies per index; 272 when each site re-indexed the classes; a
# name and a share of a tree node per task made it 47,081), incr_churn
# 140 per monitor event with host-selection outputs as shared dense
# tables built in one allocation (142 with a host vector and an `Arc`
# around the choice vector) and the dirty set and the diff's class-pair
# memo as scratch the schedule keeps (154 with a heap and a dedup vector
# per event; a per-site re-index made it 8,232).
# batch_data, whose 8k tasks form 7,833 task classes, makes 8,122 with
# batch_wide's edge index and level ranks (8,128 before them), the classes indexed once per schedule, one host-selection scratch per
# schedule (8,144 with one per site), one per-class choice list per
# site table, collected as the table's one allocation (8,136 with a host
# vector and an `Arc` around it), dataset replica lists borrowed from the catalog view and
# the ready sets and edge index as batch_wide's (8,177 with ready heaps
# and cursor copies; 8,230 with a re-index and a per-task slot vector
# per site; a heap object per class, or a replica-list clone per dataset
# input, made it 48,240). The stream stages count one arrival (host selection at up to
# 64 sites, placement, dispatch) and, for stream_backlog, the
# re-selection of every queued submission at a site whose load moved:
# 120.4 for stream_steady seed 1 and 151.3 for stream_backlog seed 2
# with each level rank held in one buffer (122.3 and 152.4 with two
# vectors per rank), a queued submission's outputs held once, by its schedule, and a
# dispatch candidate's fit read off its table's rows, its sites listed
# only for the start that charges them (220.4 for stream_backlog when
# every candidate listed its sites in a vector, started or not; 127.7
# and 406.9 when each refresh copied the outputs twice and the sites
# went through a set per candidate, then again per start), each
# selection call walking the site's view instead of collecting
# a host vector and collecting its choices as the table's one allocation
# (205.5 and 511 with the vector, a choice vector and an `Arc` around
# it), with one host-selection scratch per service, each site's one-host lists
# built once and each class's task-side costs computed once per
# submission (439 and 823 with the scratch, the lists and the costs
# made again per site per selection), with
# each site's view captured once per service and its load samples
# written into that view (622 and 925 when each sample went through the
# site repository and the next use re-captured the view), each site's
# host-side terms priced once per load state and one link
# table per service (709 and 938 with a fresh prediction memo and a copy
# of the link table per arrival), the terms as dense rows per site, one
# lane list per host-selection call, the task classes indexed once per
# queued submission, each queued submission's schedule keeping its
# `apply` scratch and the edge index built without cursor copies (716
# and 942 with the copies; 990 for stream_backlog with a heap and a dedup vector
# per `apply`). Re-indexing the classes in every host-selection call made
# them 827 and 1,142; a host-name `String` per memoised term and a lane vector
# per eligibility group, 1,616 and 1,896. durable_faults counts one
# 17-scenario sweep (~13.1k journal records): 285,484 with batch_wide's
# edge index and level ranks (285,654 before them), a replay
# that has no observer building no metrics (286,217 when each plain
# replay and each fault-free twin exported into a throwaway registry),
# each site's
# selection allocating only its choice table (286,381 with a host vector
# and an `Arc` around a choice vector), one
# host-selection scratch per schedule (286,499 with one per site), each site's
# repository held by its Site Manager alone (286,533 with a vector of the
# same repositories per replay beside the managers), the checkpoint
# store's state written into snapshots by reference, `latest_valid`
# borrowing the checkpoint it finds and each repository event serialised
# once for the journal and the deputy (301,857 when every snapshot
# re-projected the store by clone, every resumed run cloned its
# checkpoint and a shipped event was cloned and serialised twice), the
# monitoring chain's network model, detected partition and quarantines
# held as plain values the replay reads in place (305,963 when a shared model, the
# detected partition and the host quarantine were each cloned per
# tick), the edge
# index built without cursor copies (306,351 with them), the monitoring
# chain passing its reports and control messages by value, each record
# framed once into the journal's log, recovered records
# borrowed from the kill image, the resumed state compared with the seal
# as it streams, re-selection borrowing the site views, the task_run
# span's fields built only for an enabled trace sink and `to_vec` /
# `to_string` starting from a 128-byte buffer. Growing that buffer from
# empty, as a `Vec` does, made it 317,738. Cloning every view
# per re-selection and building those fields for a disabled sink made it
# 352,364; a Monitor daemon that also sent a clone of each report down a
# channel to its Group Manager, 377,373; `read_wal` / `recover` copying
# every record into a `Vec<u8>` and a `String` pair with the resume leg
# serialising into a buffer, 404,546 (431,736 when the journal also kept
# each record as a `(String, String)` pair). The ceilings of batch_wide,
# batch_data, the stream stages, incr_churn and durable_faults sit about
# halfway between the count and the one before it.
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
stage "vdce_perf stream_backlog (seed 2)" perf_allocs_at_most 151.9 stream_backlog 2
stage "vdce_perf stream_steady (seed 1)" perf_allocs_at_most 121.4 stream_steady
stage "vdce_perf batch_wide (seed 1)" perf_allocs_at_most 208 batch_wide
stage "vdce_perf batch_data (seed 1)" perf_allocs_at_most 8125 batch_data
# Full-size incremental check: incr_churn compares the standing table
# with a full re-walk on every 64th event, and with the initial table
# once every host has healed. The smoke absorbs a twentieth of the
# events into a twentieth of the tasks; the 10k-task, 512-event pass is
# where a diff that misses a slot or a row rewritten wrongly would show.
stage "vdce_perf incr_churn (seed 1)" perf_allocs_at_most 141 incr_churn
# Full-size durable check: durable_faults asserts, per fault scenario,
# durable replay == plain replay, zero deputy divergences, and that four
# kills (three with a torn tail) each recover, replay and resume to the
# sealed bytes — which is also the one place the live snapshot writer
# and the typed `ControlState` writer are held to the same bytes. The
# smoke runs 3 of the 17 scenarios.
stage "vdce_perf durable_faults (seed 1)" perf_allocs_at_most 285569 durable_faults
