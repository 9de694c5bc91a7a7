//! E10 — the paper's future work, measured: DSM coherence traffic vs
//! page size on the canonical stencil workload, including the
//! false-sharing regime.
//!
//! Claim under test (§5): a "distributed shared memory model" can carry
//! VDCE applications written in a shared-memory paradigm. The design
//! question a 90s DSM had to answer is the page-size trade-off: big
//! pages amortise transfers for sequential access but false-share under
//! fine-grained writes.

use std::sync::Arc;
use std::thread;
use vdce_dsm::{DsmBarrier, DsmRegion, DsmStats};
use vdce_obs::{MetricsRegistry, Report};
use vdce_sim::Table;

const CELLS: usize = 512;
const NODES: usize = 4;
const STEPS: usize = 30;

/// Run the double-buffered stencil; return its protocol counters.
fn stencil(page_size: usize) -> DsmStats {
    let dsm = Arc::new(DsmRegion::new(2 * CELLS * 8, page_size, NODES));
    let barrier = DsmBarrier::new(NODES);
    {
        let h = dsm.handle(0);
        for i in 0..CELLS {
            h.write_f64(i * 8, if (200..220).contains(&i) { 100.0 } else { 0.0 });
        }
    }
    let buf_off = |phase: usize, i: usize| ((phase % 2) * CELLS + i) * 8;
    let chunk = CELLS / NODES;
    let workers: Vec<_> = (0..NODES)
        .map(|n| {
            let h = dsm.handle(n);
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                let (lo, hi) = (n * chunk, (n + 1) * chunk);
                for step in 0..STEPS {
                    for i in lo..hi {
                        let c = h.read_f64(buf_off(step, i));
                        let l = if i == 0 { c } else { h.read_f64(buf_off(step, i - 1)) };
                        let r = if i == CELLS - 1 { c } else { h.read_f64(buf_off(step, i + 1)) };
                        h.write_f64(buf_off(step + 1, i), c + 0.25 * (l - 2.0 * c + r));
                    }
                    barrier.wait();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    dsm.stats()
}

/// Interleaved counters: node n increments slot n, slots adjacent in
/// memory — the false-sharing stressor.
fn false_sharing(page_size: usize) -> (u64, u64) {
    let dsm = Arc::new(DsmRegion::new(NODES * 8, page_size, NODES));
    let workers: Vec<_> = (0..NODES)
        .map(|n| {
            let h = dsm.handle(n);
            thread::spawn(move || {
                for _ in 0..500 {
                    let v = h.read_u64(n * 8);
                    h.write_u64(n * 8, v + 1);
                    // Force interleaving so the contention is visible
                    // within the short run.
                    thread::yield_now();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    let s = dsm.stats();
    (s.page_transfers, s.invalidations)
}

fn main() {
    let metrics = MetricsRegistry::new();
    let mut t = Table::new(&[
        "page_bytes",
        "stencil_transfers",
        "stencil_invalidations",
        "stencil_read_hit",
    ]);
    for &ps in &[32usize, 64, 128, 256, 1024, 4096] {
        let s = stencil(ps);
        s.export_metrics(&metrics, &format!("stencil_p{ps}"));
        t.row(&[
            ps.to_string(),
            s.page_transfers.to_string(),
            s.invalidations.to_string(),
            format!("{:.2}%", s.read_hit_rate() * 100.0),
        ]);
    }

    let mut t2 = Table::new(&["page_bytes", "fs_transfers", "fs_invalidations"]);
    for &ps in &[8usize, 16, 32] {
        let (xfers, invals) = false_sharing(ps);
        t2.row(&[ps.to_string(), xfers.to_string(), invals.to_string()]);
    }
    Report::new("E10: DSM page-size sweep (paper §5 future work)")
        .table(t)
        .text("false-sharing stressor (interleaved per-node counters):")
        .table(t2)
        .note(
            "page 8 = one counter per page → no false sharing; larger pages \
             put independent counters on one page and ping-pong it",
        )
        .note(format!(
            "{} dsm.* metrics exported to the run's registry (per page size)",
            metrics.names().len()
        ))
        .print();
}
