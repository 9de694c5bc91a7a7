//! The six workloads and the interface the driver runs them through.
//!
//! A workload generates its inputs from the seed alone, then runs *passes*:
//! a pass is a fixed, seed-determined sequence of operations, so every pass
//! of a run does identical work and the per-pass numbers can be compared
//! (allocation counts and output digests must repeat exactly) and their
//! median reported. The driver fills the measuring window with whole passes.

use crate::alloc::Snapshot;
use crate::reference::Reference;
use crate::trace::Tracer;
use std::collections::BTreeMap;
use std::time::Instant;

pub mod batch_data;
pub mod batch_wide;
pub mod durable_faults;
pub mod incr_churn;
pub mod stream;

/// The workloads, in `BENCHMARK.json` order: name, and why it is in the benchmark.
pub const WORKLOADS: [(&str, &str); 6] = [
    (
        "batch_wide",
        "one 40k-task AFG scheduled and simulated over 64 sites: level, host selection and walk \
         do all the work, service and journal code none",
    ),
    (
        "batch_data",
        "4k reader-transform chains over two-replica datasets: the same walk through the replica \
         argmin, which a walk speed-up could tax",
    ),
    (
        "incr_churn",
        "512 host Down/Up monitor events absorbed by a standing 10k-task schedule: the scheduler \
         as an update, which batch precomputation can slow",
    ),
    (
        "stream_steady",
        "420 arrivals at 64 sites with an empty queue: per-arrival, per-site admission cost \
         dominates, queue work is absent",
    ),
    (
        "stream_backlog",
        "2 x 700 arrivals at 8 overloaded sites with over 100 pending: queue refresh and dispatch \
         dominate, admission cost per arrival is small",
    ),
    (
        "durable_faults",
        "17 fault scenarios replayed with journal, snapshots and deputy checks, then killed and \
         recovered: store and durable code only, no scheduler hot path",
    ),
];

/// Workload names, in `BENCHMARK.json` order.
pub fn names() -> impl Iterator<Item = &'static str> {
    WORKLOADS.iter().map(|w| w.0)
}

/// Input sizes: the benchmark's own, or a twentieth of them for the unit
/// tests (which run unoptimised).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    /// The sizes `BENCHMARK.json` describes.
    Full,
    /// Small inputs of the same shape.
    Small,
}

impl Scale {
    /// `n` at this scale (even, and at least 8).
    pub fn of(self, n: usize) -> usize {
        match self {
            Scale::Full => n,
            Scale::Small => (n / 20).max(8) & !1,
        }
    }
}

/// Generate workload `name`'s inputs from `seed`. `None` for an unknown name.
pub fn build(name: &str, seed: u64, scale: Scale) -> Option<Box<dyn Workload>> {
    Some(match name {
        "batch_wide" => Box::new(batch_wide::BatchWide::setup(seed, scale)),
        "batch_data" => Box::new(batch_data::BatchData::setup(seed, scale)),
        "incr_churn" => Box::new(incr_churn::IncrChurn::setup(seed, scale)),
        "stream_steady" => Box::new(stream::Stream::setup(stream::STEADY, seed, scale)),
        "stream_backlog" => Box::new(stream::Stream::setup(stream::BACKLOG, seed, scale)),
        "durable_faults" => Box::new(durable_faults::DurableFaults::setup(seed, scale)),
        _ => return None,
    })
}

/// Where set-up time went, for the `sim.*` per-layer metrics.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    /// `sim.dag_gen`: AFG generation.
    pub dag_gen_s: f64,
    /// `sim.pool_gen`: federation generation.
    pub pool_gen_s: f64,
    /// `sim.arrivals`: submission-trace generation.
    pub arrivals_s: f64,
}

/// What one pass produced, beyond its timings. Deterministic in the seed:
/// the driver fails the run if two passes disagree.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct PassOutcome {
    /// Digest of the pass's outputs (tables, placements, reports).
    pub digest: u64,
    /// Units of offered work (ops, or submissions for the stream workloads).
    pub offered: u64,
    /// Units the system accepted and completed.
    pub served: u64,
    /// Ops whose output check failed.
    pub failed: u64,
}

/// Times and counts the operations of one untraced pass.
pub struct OpRecorder {
    /// Wall time of each op, ns.
    pub op_ns: Vec<u64>,
    /// Wall time of the ops and of [`OpRecorder::extra`], ns.
    pub busy_ns: u64,
    /// Allocations inside ops and extras.
    pub allocs: Snapshot,
    /// Reference slices run between the ops: how fast the machine was
    /// while this pass ran.
    pub reference: Reference,
}

impl OpRecorder {
    /// Empty recorder. (Samples are pushed outside the timed and counted
    /// regions, so its own growth never shows in a measurement.)
    pub fn new() -> Self {
        OpRecorder {
            op_ns: Vec::new(),
            busy_ns: 0,
            allocs: Snapshot::default(),
            reference: Reference::default(),
        }
    }

    fn timed<T>(&mut self, f: impl FnOnce() -> T) -> (T, u64) {
        let a0 = Snapshot::now();
        let t0 = Instant::now();
        let out = f();
        let ns = t0.elapsed().as_nanos() as u64;
        self.allocs = self.allocs.plus(Snapshot::now().since(a0));
        self.busy_ns += ns;
        self.reference.keep_pace(self.busy_ns);
        (out, ns)
    }

    /// Time `f` as one operation.
    pub fn op<T>(&mut self, f: impl FnOnce() -> T) -> T {
        let (out, ns) = self.timed(f);
        self.op_ns.push(ns);
        out
    }

    /// Time `f` as work of the pass that is not an operation of its own
    /// (the final drain of a submission trace): it counts toward the
    /// pass's wall time and allocations, not toward per-op latency.
    pub fn extra<T>(&mut self, f: impl FnOnce() -> T) -> T {
        self.timed(f).0
    }

    /// Seconds the pass's work would have taken at the machine's nominal speed.
    pub fn busy_nominal_s(&self) -> f64 {
        self.busy_ns as f64 / 1e9 / self.reference.slowdown()
    }
}

/// Per-layer values a workload measures itself (counts, ratios, side
/// timings), keyed by `per_layer` metric name.
pub type LayerValues = BTreeMap<&'static str, f64>;

/// One benchmark workload.
pub trait Workload {
    /// Fingerprint of the generated inputs: equal for equal seeds.
    fn input_digest(&self) -> u64;

    /// Where set-up time went.
    fn setup_times(&self) -> SetupTimes;

    /// Run one pass, timing each operation through `rec`. Output checks that
    /// cost little run here, outside the timed closures.
    fn pass(&mut self, rec: &mut OpRecorder) -> PassOutcome;

    /// Run the same pass with every operation decomposed into calls to the
    /// layers' public functions, one span per call; counts observed at the
    /// boundaries go into `values`.
    fn traced_pass(&mut self, tr: &mut Tracer, values: &mut LayerValues) -> PassOutcome;

    /// Per-layer measurements taken beside the op, once per traced run.
    fn side_measurements(&mut self, values: &mut LayerValues);

    /// The expensive output checks (reference comparisons, full re-walks).
    /// Returns one line per failure.
    fn check(&mut self) -> Vec<String>;
}

/// SplitMix64: the driver's own deterministic choices (event victims, kill
/// points) come from this, never from a library RNG.
#[derive(Debug, Clone)]
pub struct SplitMix(pub u64);

impl SplitMix {
    /// Next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `0..n` (`n > 0`).
    pub fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }
}

/// Seconds `f` took, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// Best of `reps` timings of `f`, seconds — for side measurements, where
/// the quantity of interest is the cost, not its run-to-run spread.
pub fn best_of<T>(reps: usize, mut f: impl FnMut() -> T) -> f64 {
    (0..reps.max(1)).map(|_| timed(&mut f).1).fold(f64::INFINITY, f64::min)
}

/// `predict.cache.*` per op: what `ops` operations added to the memo's
/// counters since the reading `before` ([`crate::layers::predict_cache_stats`];
/// all zero for a memo created inside the op).
pub fn record_predict_cache(
    cache: &vdce_predict::cache::PredictCache,
    before: (u64, u64, u64),
    ops: usize,
    values: &mut LayerValues,
) {
    let after = crate::layers::predict_cache_stats(cache);
    let (lookups, hits, evictions) = (after.0 - before.0, after.1 - before.1, after.2 - before.2);
    values.insert("predict.cache.lookups", lookups as f64 / ops as f64);
    values.insert("predict.cache.hit_rate", hits as f64 / lookups.max(1) as f64);
    values.insert("predict.cache.evictions", evictions as f64 / ops as f64);
}

/// `afg.document.parse_ms` and `afg.validate.ms`: the JSON admission
/// boundary a submitted AFG crosses before any op sees it, per AFG.
pub fn measure_document_boundary(afgs: &[vdce_afg::Afg], values: &mut LayerValues) {
    let (mut parse_s, mut validate_s) = (0.0, 0.0);
    for afg in afgs {
        let json = crate::layers::document_json(afg);
        parse_s += timed(|| crate::layers::parse_document(&json)).1;
        validate_s += timed(|| crate::layers::validate(afg)).1;
    }
    let n = afgs.len().max(1) as f64;
    values.insert("afg.document.parse_ms", parse_s * 1e3 / n);
    values.insert("afg.validate.ms", validate_s * 1e3 / n);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_same_inputs_and_other_seed_other_inputs() {
        for name in names() {
            let a = build(name, 1, Scale::Small).expect("known workload").input_digest();
            let b = build(name, 1, Scale::Small).expect("known workload").input_digest();
            let c = build(name, 2, Scale::Small).expect("known workload").input_digest();
            assert_eq!(a, b, "{name}: seed 1 twice");
            assert_ne!(a, c, "{name}: seed 1 vs seed 2");
        }
        assert!(build("nope", 1, Scale::Small).is_none());
    }

    #[test]
    fn decomposed_pass_equals_one_call_pass_and_checks_hold() {
        for name in names() {
            let mut w = build(name, 3, Scale::Small).expect("known workload");
            let plain = w.pass(&mut OpRecorder::new());
            let again = w.pass(&mut OpRecorder::new());
            let traced = w.traced_pass(&mut Tracer::new(), &mut LayerValues::new());
            assert_eq!(plain, again, "{name}: passes repeat");
            assert_eq!(plain, traced, "{name}: the traced pass does the same work");
            assert_eq!(plain.failed, 0, "{name}");
            assert_eq!(w.check(), Vec::<String>::new(), "{name}");
        }
    }

    #[test]
    fn recorder_separates_ops_from_extras() {
        let mut rec = OpRecorder::new();
        rec.op(|| std::hint::black_box(vec![1u8; 32]));
        rec.op(|| ());
        rec.extra(|| std::hint::black_box(vec![1u8; 32]));
        assert_eq!(rec.op_ns.len(), 2);
        assert!(rec.allocs.calls >= 2 && rec.allocs.bytes >= 64);
        assert!(rec.busy_ns >= rec.op_ns.iter().sum::<u64>());
        assert!(rec.busy_nominal_s() > 0.0);
    }

    #[test]
    fn splitmix_is_deterministic_and_bounded() {
        let (mut a, mut b) = (SplitMix(7), SplitMix(7));
        assert!((0..100).all(|_| a.next() == b.next()));
        assert!((0..100).all(|_| a.below(5) < 5));
    }
}
