//! E10 — the paper's future work, measured: DSM coherence traffic vs
//! page size on the canonical stencil workload, including the
//! false-sharing regime.
//!
//! Claim under test (§5): a "distributed shared memory model" can carry
//! VDCE applications written in a shared-memory paradigm. The design
//! question a 90s DSM had to answer is the page-size trade-off: big
//! pages amortise transfers for sequential access but false-share under
//! fine-grained writes.

use super::Claims;
use std::sync::Arc;
use std::thread;
use vdce_dsm::{DsmBarrier, DsmRegion, DsmStats};
use vdce_obs::{MetricsRegistry, Report};
use vdce_sim::Table;

const CELLS: usize = 512;
const NODES: usize = 4;
const STEPS: usize = 30;

/// The initial field: a hot band in a cold bar.
fn initial(i: usize) -> f64 {
    if (200..220).contains(&i) {
        100.0
    } else {
        0.0
    }
}

/// Cell `i`'s next value, reading the current field through `at`.
fn diffuse(i: usize, at: impl Fn(usize) -> f64) -> f64 {
    let c = at(i);
    let l = if i == 0 { c } else { at(i - 1) };
    let r = if i == CELLS - 1 { c } else { at(i + 1) };
    c + 0.25 * (l - 2.0 * c + r)
}

/// Run the double-buffered stencil; return its protocol counters and the
/// largest difference between its final field and a sequential run's.
fn stencil(page_size: usize) -> (DsmStats, f64) {
    let dsm = Arc::new(DsmRegion::new(2 * CELLS * 8, page_size, NODES));
    let barrier = DsmBarrier::new(NODES);
    let h0 = dsm.handle(0);
    for i in 0..CELLS {
        h0.write_f64(i * 8, initial(i));
    }
    let buf_off = |phase: usize, i: usize| ((phase % 2) * CELLS + i) * 8;
    let chunk = CELLS / NODES;
    let workers: Vec<_> = (0..NODES)
        .map(|n| {
            let h = dsm.handle(n);
            let barrier = barrier.clone();
            thread::spawn(move || {
                barrier.wait();
                for step in 0..STEPS {
                    for i in n * chunk..(n + 1) * chunk {
                        let next = diffuse(i, |j| h.read_f64(buf_off(step, j)));
                        h.write_f64(buf_off(step + 1, i), next);
                    }
                    barrier.wait();
                }
            })
        })
        .collect();
    for w in workers {
        w.join().unwrap();
    }
    // Counted before node 0 reads the result back.
    let stats = dsm.stats();
    let mut field: Vec<f64> = (0..CELLS).map(initial).collect();
    for _ in 0..STEPS {
        field = (0..CELLS).map(|i| diffuse(i, |j| field[j])).collect();
    }
    let err = (0..CELLS).map(|i| (h0.read_f64(buf_off(STEPS, i)) - field[i]).abs());
    (stats, err.fold(0.0, f64::max))
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

pub(super) fn run(claims: &mut Claims) -> String {
    let metrics = MetricsRegistry::new();
    let mut t = Table::new(&[
        "page_bytes",
        "stencil_transfers",
        "stencil_invalidations",
        "stencil_read_hit",
    ]);
    for &ps in &[32usize, 64, 128, 256, 1024, 4096] {
        let (s, err) = stencil(ps);
        s.export_metrics(&metrics, &format!("stencil_p{ps}"));
        let hits = s.read_hit_rate();
        claims.check(err == 0.0 && hits >= 0.99, || {
            format!(
                "e10: the stencil equals a sequential run and hits >= 99% of its reads \
                 (page {ps}: max error {err:e}, read hit rate {hits:.4})"
            )
        });
        t.row(&[
            ps.to_string(),
            s.page_transfers.to_string(),
            s.invalidations.to_string(),
            format!("{:.2}%", hits * 100.0),
        ]);
    }

    let mut t2 = Table::new(&["page_bytes", "fs_transfers", "fs_invalidations"]);
    for &ps in &[8usize, 16, 32] {
        let (xfers, invals) = false_sharing(ps);
        // One counter per page never invalidates; two or more on a page
        // ping-pong it between their writers.
        claims.check((invals == 0) == (ps == 8), || {
            format!("e10: false sharing invalidates from page 16 on (page {ps}: {invals})")
        });
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
        .render()
}
