//! DSM protocol counters.

use std::sync::atomic::{AtomicU64, Ordering};

/// Snapshot of the protocol counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DsmStats {
    /// Reads served from the local cache (S or M state).
    pub read_hits: u64,
    /// Reads that fetched the page from the directory/owner.
    pub read_misses: u64,
    /// Writes that already held the page in M state.
    pub write_hits: u64,
    /// Writes that needed ownership (upgrade or fetch).
    pub write_misses: u64,
    /// Invalidation messages sent to sharers/owners.
    pub invalidations: u64,
    /// Whole-page transfers (owner → directory → requester).
    pub page_transfers: u64,
    /// Consistent snapshots taken of the whole region.
    pub snapshots: u64,
    /// Snapshot restores applied to the region.
    pub restores: u64,
    /// Pages copied by snapshot/restore traffic (dirty-owner pulls on
    /// snapshot plus every page written back on restore).
    pub(crate) snapshot_page_copies: u64,
}

#[derive(Debug, Default)]
pub(crate) struct StatCounters {
    pub read_hits: AtomicU64,
    pub read_misses: AtomicU64,
    pub write_hits: AtomicU64,
    pub write_misses: AtomicU64,
    pub invalidations: AtomicU64,
    pub page_transfers: AtomicU64,
    pub snapshots: AtomicU64,
    pub restores: AtomicU64,
    pub(crate) snapshot_page_copies: AtomicU64,
}

impl StatCounters {
    pub(crate) fn snapshot(&self) -> DsmStats {
        DsmStats {
            read_hits: self.read_hits.load(Ordering::Relaxed),
            read_misses: self.read_misses.load(Ordering::Relaxed),
            write_hits: self.write_hits.load(Ordering::Relaxed),
            write_misses: self.write_misses.load(Ordering::Relaxed),
            invalidations: self.invalidations.load(Ordering::Relaxed),
            page_transfers: self.page_transfers.load(Ordering::Relaxed),
            snapshots: self.snapshots.load(Ordering::Relaxed),
            restores: self.restores.load(Ordering::Relaxed),
            snapshot_page_copies: self.snapshot_page_copies.load(Ordering::Relaxed),
        }
    }

    #[inline]
    pub(crate) fn bump(counter: &AtomicU64) {
        counter.fetch_add(1, Ordering::Relaxed);
    }

    #[inline]
    pub(crate) fn add(counter: &AtomicU64, n: u64) {
        counter.fetch_add(n, Ordering::Relaxed);
    }
}

impl DsmStats {
    /// Export the counters into `m` under `dsm.<region>.`. The protocol
    /// counters are pure functions of the access sequence, so
    /// single-threaded (or deterministically ordered) workloads export
    /// identical snapshots across runs; counters *add* on repeat export.
    pub fn export_metrics(&self, m: &vdce_obs::MetricsRegistry, region: &str) {
        let c = [
            ("read_hits", self.read_hits),
            ("read_misses", self.read_misses),
            ("write_hits", self.write_hits),
            ("write_misses", self.write_misses),
            ("invalidations", self.invalidations),
            ("page_transfers", self.page_transfers),
            ("snapshots", self.snapshots),
            ("restores", self.restores),
            ("snapshot_page_copies", self.snapshot_page_copies),
        ];
        for (name, v) in c {
            m.counter_add(&format!("dsm.{region}.{name}"), v);
        }
        m.gauge_set(&format!("dsm.{region}.read_hit_rate"), self.read_hit_rate());
    }

    /// Total reads.
    pub fn reads(&self) -> u64 {
        self.read_hits + self.read_misses
    }

    /// Total writes.
    pub fn writes(&self) -> u64 {
        self.write_hits + self.write_misses
    }

    /// Read hit rate in [0, 1]; 1.0 when no reads happened.
    pub fn read_hit_rate(&self) -> f64 {
        if self.reads() == 0 {
            1.0
        } else {
            self.read_hits as f64 / self.reads() as f64
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn snapshot_reflects_bumps() {
        let c = StatCounters::default();
        StatCounters::bump(&c.read_hits);
        StatCounters::bump(&c.read_hits);
        StatCounters::bump(&c.invalidations);
        let s = c.snapshot();
        assert_eq!(s.read_hits, 2);
        assert_eq!(s.invalidations, 1);
        assert_eq!(s.reads(), 2);
        assert_eq!(s.read_hit_rate(), 1.0);
    }

    #[test]
    fn export_metrics_namespaces_by_region() {
        let s = DsmStats { read_hits: 3, read_misses: 1, page_transfers: 2, ..DsmStats::default() };
        let m = vdce_obs::MetricsRegistry::new();
        s.export_metrics(&m, "gauss");
        assert_eq!(m.counter("dsm.gauss.read_hits"), 3);
        assert_eq!(m.counter("dsm.gauss.page_transfers"), 2);
        assert_eq!(m.gauge("dsm.gauss.read_hit_rate"), Some(0.75));
        // Repeat export accumulates (documented add semantics).
        s.export_metrics(&m, "gauss");
        assert_eq!(m.counter("dsm.gauss.read_hits"), 6);
    }

    #[test]
    fn hit_rate_handles_zero_reads() {
        assert_eq!(DsmStats::default().read_hit_rate(), 1.0);
        let s = DsmStats { read_hits: 1, read_misses: 3, ..DsmStats::default() };
        assert_eq!(s.read_hit_rate(), 0.25);
    }
}
