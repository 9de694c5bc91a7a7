//! The reference kernel: a fixed piece of work the driver times in thin
//! slices between the operations it measures, so that a timing can be
//! reported at the machine's *nominal* speed.
//!
//! The sandbox's cores drift by ±20 % in phases of a tenth of a second to
//! minutes, and no estimator inside a 10 s window removes a phase longer
//! than the window: identical work read 7.7 and 14.7 ops/s a quarter of an
//! hour apart. The drift hits whatever runs, though, so the same phases show
//! in a kernel that always does the same work. A slice runs after an
//! operation, outside its timed and counted region, whenever the reference
//! has had less than [`SHARE`] of the measured time — interleaved that
//! finely, both see the same machine. A measured time divided by
//! [`Reference::slowdown`] is what the work would have taken at nominal speed.
//!
//! What the kernel does matters: it has to slow down when the library code
//! does. A slice counts 6000 keys into a hash map and sorts 4000 floats, in
//! buffers that persist, so it allocates nothing and costs the same whatever
//! state the measured code left the heap and the caches in (206–223 µs
//! across the six workloads). A dependent-load pointer chase (tried over
//! 8 KiB and over 1 MiB) did not track the drift and left some workloads
//! worse than uncorrected; hashing, sorting and small allocations each did.
//! Measured spreads are in `perf/README.md`.

use std::cell::RefCell;
use std::collections::HashMap;
use std::time::Instant;

/// What one slice takes on the box the benchmark was tuned on, at its usual
/// speed. It only fixes the unit: both sides of a comparison divide by it.
const SLICE_NOMINAL_NS: f64 = 215_000.0;
/// Reference time kept per unit of measured time.
const SHARE: f64 = 0.2;
const KEYS: u64 = 1_500;
const FLOATS: usize = 4_000;

thread_local! {
    /// The slice's buffers, allocated once per process.
    static BUFFERS: RefCell<(HashMap<u64, u32>, Vec<f64>)> =
        RefCell::new((HashMap::with_capacity(2 * KEYS as usize), vec![0.0; FLOATS]));
}

/// One slice of reference work.
fn work() {
    BUFFERS.with_borrow_mut(|(counts, floats)| {
        counts.clear();
        let mut x: u64 = 88_172_645_463_325_252;
        let mut acc = 0u64;
        for _ in 0..4 * KEYS {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            let count = counts.entry(x % KEYS).or_insert(0);
            *count += 1;
            acc = acc.wrapping_add(u64::from(*count));
        }
        for (i, f) in floats.iter_mut().enumerate() {
            *f = ((i * 7_919) % 10_007) as f64;
        }
        floats.sort_by(f64::total_cmp);
        std::hint::black_box((acc, floats[100]));
    });
}

/// Reference time accumulated beside one measurement.
#[derive(Debug, Default)]
pub struct Reference {
    ns: u64,
    slices: u64,
}

impl Reference {
    /// Run slices until the reference has had its share of `measured_ns`.
    pub fn keep_pace(&mut self, measured_ns: u64) {
        while (self.ns as f64) < SHARE * measured_ns as f64 {
            let t0 = Instant::now();
            work();
            self.ns += t0.elapsed().as_nanos() as u64;
            self.slices += 1;
        }
    }

    /// How much slower than nominal the machine ran while the slices were
    /// taken (1 when none were).
    pub fn slowdown(&self) -> f64 {
        if self.slices == 0 {
            1.0
        } else {
            self.ns as f64 / self.slices as f64 / SLICE_NOMINAL_NS
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reference_keeps_its_share_and_reads_a_slowdown() {
        let mut r = Reference::default();
        assert_eq!(r.slowdown(), 1.0, "no slice, no correction");
        r.keep_pace(10_000_000);
        assert!(r.slices >= 1 && r.ns as f64 >= SHARE * 10_000_000.0);
        let before = r.slices;
        r.keep_pace(10_000_000);
        assert_eq!(r.slices, before, "already at pace");
        assert!(r.slowdown() > 0.0);
    }
}
