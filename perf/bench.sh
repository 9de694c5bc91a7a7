#!/usr/bin/env bash
# The command BENCHMARK.json names: build vdce_perf from source, then run one
# workload once. The driver appends
#   --workload <name> --seed <n> --seconds <s> --trace <0|1>
# and reads the last line of standard output. Run from the checkout root.
set -euo pipefail
cd "$(dirname "$0")/.."

# perf/ is a workspace of its own, so it inherits nothing from the root
# manifest and the root's tests never compile it. What could drift is
# checked here, on every run: the release profile must be the root's (the
# benchmark measures the code as the repository ships it), and
# BENCHMARK.json must be the one the binary describes.
profile() { sed -n '/^\[profile\.release\]/,/^\[/p' "$1" | grep -v '^\[' | grep -v '^ *$' | sort; }
if ! diff <(profile Cargo.toml) <(profile perf/Cargo.toml) >&2; then
    echo "bench.sh: [profile.release] of perf/Cargo.toml differs from the root's" >&2
    exit 1
fi
target="${CARGO_TARGET_DIR:-perf/target}"
# Build output goes to stderr: stdout carries the result alone.
cargo build --release --offline --quiet --manifest-path perf/Cargo.toml >&2
if ! "$target/release/vdce_perf" --describe | diff - BENCHMARK.json >&2; then
    echo "bench.sh: BENCHMARK.json is stale; regenerate with vdce_perf --describe" >&2
    exit 1
fi
exec "$target/release/vdce_perf" "$@"
