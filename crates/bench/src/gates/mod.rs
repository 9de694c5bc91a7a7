//! The experiments behind the committed `BENCH_<name>.json` files, the
//! trace-determinism gate, the fuzz hunt and DESIGN.md's `surface` block,
//! one function each: the registry's entries after the paper's ten.
//!
//! | name       | records               | what it gates |
//! |------------|-----------------------|---------------|
//! | `data`     | `BENCH_data.json`     | data-aware placement margin, co-located-replica identity, replay, storage violations |
//! | `faults`   | `BENCH_faults.json`   | fault replay determinism, recovery, crash inflation, checkpoint pairs, failover |
//! | `fuzz`     | `BENCH_fuzz.json`     | the seed sweep, shrinker self-tests, promoted scenarios |
//! | `hunt`     | nothing               | none: ranks shrunk adversarial seeds for promotion |
//! | `recovery` | `BENCH_recovery.json` | durable ≡ plain replay, kill-and-restart, deputies, the `FileWal` fixture |
//! | `scale`    | `BENCH_scale.json`    | incremental reschedule ≡ full re-walk |
//! | `stream`   | `BENCH_stream.json`   | double replay, the pinned placements digest, p99 time-to-placement, starvation |
//! | `surface`  | its DESIGN.md block   | DESIGN.md §4's inventory of files, counts and crate-only `pub fn`s equals the tree |
//! | `trace`    | nothing               | trace schema and double-replay identity over every fault scenario |
//!
//! `scale`, `stream` and `recovery` also time their work; those numbers
//! sit under their artifact's top-level `wall_clock` section, the one
//! part `exp --check` does not compare.

use crate::exp::{Experiment, Output};
use serde::Serialize;

/// The first entry of every `wall_clock` section.
const WALL_CLOCK_NOTE: &str =
    "one wall-clock run of `exp --write`: machine-dependent, and not compared by `exp --check`";

mod data;
mod faults;
mod fuzz;
mod recovery;
mod scale;
mod stream;
mod surface;
mod trace;

/// The registry's entries after the paper's ten, by name.
pub(crate) static EXPERIMENTS: [Experiment; 9] = [
    Experiment { name: "data", deterministic: true, output: Output::Bench(data::run) },
    Experiment { name: "faults", deterministic: true, output: Output::Bench(faults::run) },
    Experiment { name: "fuzz", deterministic: true, output: Output::Bench(fuzz::run) },
    Experiment { name: "hunt", deterministic: true, output: Output::Nowhere(fuzz::hunt) },
    Experiment { name: "recovery", deterministic: false, output: Output::Bench(recovery::run) },
    Experiment { name: "scale", deterministic: false, output: Output::Bench(scale::run) },
    Experiment { name: "stream", deterministic: false, output: Output::Bench(stream::run) },
    Experiment {
        name: "surface",
        deterministic: true,
        output: Output::Block("DESIGN.md", surface::run),
    },
    Experiment { name: "trace", deterministic: true, output: Output::Nowhere(trace::run) },
];

/// `a` and `b` serialise to the same JSON: two replays agree byte for
/// byte.
fn same_json<T: Serialize>(a: &T, b: &T) -> bool {
    let json = |v: &T| serde_json::to_string(v).expect("a report serialises");
    json(a) == json(b)
}
