//! The inter-site network performance model.
//!
//! The site-scheduler algorithm (Figure 2) charges a task placed away from
//! its parents `transfer_time(S_parent, S_j) × file_size` — in the paper,
//! "the inter-task transfer time is based on the network transfer time
//! between a site and the parent's site, and the size of the transfer."
//! [`NetworkModel`] provides that function from per-site-pair latency and
//! bandwidth parameters, plus the *k nearest neighbour sites* query the
//! algorithm's step 2 needs.
//!
//! Units: seconds and bytes/second. Transfers within one site pay the
//! (fast) intra-site link; `transfer_time(s, s, 0 bytes)` is zero only if
//! the intra-site latency is zero.

use crate::topology::SiteId;
use serde::{Deserialize, Serialize};

/// Latency/bandwidth pair describing one directed link.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct LinkParams {
    /// One-way message latency in seconds.
    pub latency_s: f64,
    /// Sustained bandwidth in bytes per second.
    pub bandwidth_bps: f64,
}

impl LinkParams {
    /// A link with the given parameters.
    pub const fn new(latency_s: f64, bandwidth_bps: f64) -> Self {
        LinkParams { latency_s, bandwidth_bps }
    }

    /// Campus Fast-Ethernet-class intra-site default: 0.3 ms, 100 Mbit/s.
    pub(crate) const fn intra_site_default() -> Self {
        LinkParams::new(0.000_3, 12_500_000.0)
    }

    /// Mid-90s WAN-class inter-site default: 20 ms, 10 Mbit/s.
    pub(crate) const fn wan_default() -> Self {
        LinkParams::new(0.020, 1_250_000.0)
    }

    /// Time to move `bytes` over this link.
    #[inline]
    pub(crate) fn transfer_time(&self, bytes: u64) -> f64 {
        self.latency_s + bytes as f64 / self.bandwidth_bps
    }
}

/// Symmetric site-to-site network model.
///
/// Stores the upper triangle (including the diagonal, which models the
/// intra-site network) of the site × site link matrix.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct NetworkModel {
    sites: usize,
    /// Upper-triangular (row ≤ col) link parameters, row-major.
    links: Vec<LinkParams>,
}

impl NetworkModel {
    /// Model over `sites` sites with every intra-site link set to the
    /// campus default and every inter-site link to the WAN default.
    pub fn with_defaults(sites: usize) -> Self {
        let mut m =
            NetworkModel { sites, links: vec![LinkParams::wan_default(); sites * (sites + 1) / 2] };
        for s in 0..sites {
            m.set_link(SiteId(s as u16), SiteId(s as u16), LinkParams::intra_site_default());
        }
        m
    }

    /// Number of sites this model covers.
    pub fn site_count(&self) -> usize {
        self.sites
    }

    #[inline]
    fn idx(&self, a: SiteId, b: SiteId) -> usize {
        let (lo, hi) =
            if a.index() <= b.index() { (a.index(), b.index()) } else { (b.index(), a.index()) };
        debug_assert!(hi < self.sites, "site out of range");
        // Row-major upper triangle: row lo starts at lo*sites - lo*(lo-1)/2.
        lo * self.sites - lo * (lo.saturating_sub(1)) / 2 - lo + hi
    }

    /// Set the (symmetric) link between `a` and `b`.
    pub fn set_link(&mut self, a: SiteId, b: SiteId, params: LinkParams) {
        let i = self.idx(a, b);
        self.links[i] = params;
    }

    /// The (symmetric) link parameters between `a` and `b`; the diagonal
    /// is the intra-site network.
    pub fn link(&self, a: SiteId, b: SiteId) -> LinkParams {
        self.links[self.idx(a, b)]
    }

    /// `transfer_time(S_a, S_b)` for `bytes` — the quantity multiplied
    /// into the site-scheduler's total-time expression.
    #[inline]
    pub fn transfer_time(&self, a: SiteId, b: SiteId, bytes: u64) -> f64 {
        self.link(a, b).transfer_time(bytes)
    }

    /// Network *distance* between two sites used for neighbour ranking:
    /// the time to move a nominal 1 MiB file.
    pub fn distance(&self, a: SiteId, b: SiteId) -> f64 {
        self.transfer_time(a, b, 1 << 20)
    }

    /// The `k` nearest neighbour sites of `local` (excluding `local`
    /// itself), closest first — step 2 of the site-scheduler algorithm.
    /// Ties break by ascending site id; returns fewer than `k` if the
    /// federation is small.
    pub fn nearest_neighbours(&self, local: SiteId, k: usize) -> Vec<SiteId> {
        let mut others: Vec<SiteId> =
            (0..self.sites as u16).map(SiteId).filter(|&s| s != local).collect();
        others.sort_by(|&x, &y| {
            self.distance(local, x).total_cmp(&self.distance(local, y)).then(x.cmp(&y))
        });
        others.truncate(k);
        others
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model3() -> NetworkModel {
        let mut m = NetworkModel::with_defaults(3);
        m.set_link(SiteId(0), SiteId(1), LinkParams::new(0.010, 2_000_000.0));
        m.set_link(SiteId(0), SiteId(2), LinkParams::new(0.050, 1_000_000.0));
        m.set_link(SiteId(1), SiteId(2), LinkParams::new(0.030, 1_500_000.0));
        m
    }

    #[test]
    fn transfer_time_is_latency_plus_serialisation() {
        let m = model3();
        let t = m.transfer_time(SiteId(0), SiteId(1), 2_000_000);
        assert!((t - (0.010 + 1.0)).abs() < 1e-12);
    }

    #[test]
    fn links_are_symmetric() {
        let m = model3();
        for a in 0..3u16 {
            for b in 0..3u16 {
                assert_eq!(
                    m.link(SiteId(a), SiteId(b)),
                    m.link(SiteId(b), SiteId(a)),
                    "link {a}-{b} asymmetric"
                );
            }
        }
    }

    #[test]
    fn intra_site_is_faster_than_wan_by_default() {
        let m = NetworkModel::with_defaults(2);
        let intra = m.transfer_time(SiteId(0), SiteId(0), 1 << 20);
        let inter = m.transfer_time(SiteId(0), SiteId(1), 1 << 20);
        assert!(intra < inter);
    }

    #[test]
    fn nearest_neighbours_sorted_by_distance() {
        let m = model3();
        assert_eq!(m.nearest_neighbours(SiteId(0), 2), vec![SiteId(1), SiteId(2)]);
        assert_eq!(m.nearest_neighbours(SiteId(2), 1), vec![SiteId(1)]);
    }

    #[test]
    fn nearest_neighbours_excludes_self_and_truncates() {
        let m = model3();
        let n = m.nearest_neighbours(SiteId(1), 10);
        assert_eq!(n.len(), 2);
        assert!(!n.contains(&SiteId(1)));
        assert!(m.nearest_neighbours(SiteId(0), 0).is_empty());
    }

    #[test]
    fn single_site_has_no_neighbours() {
        let m = NetworkModel::with_defaults(1);
        assert!(m.nearest_neighbours(SiteId(0), 4).is_empty());
        // Intra-site transfers still work.
        assert!(m.transfer_time(SiteId(0), SiteId(0), 1024) > 0.0);
    }

    #[test]
    fn triangle_index_covers_every_pair_once() {
        // Setting every pair to a unique value then reading it back
        // exercises the triangular indexing for aliasing bugs.
        let n = 5usize;
        let mut m = NetworkModel::with_defaults(n);
        let mut v = 1.0;
        for a in 0..n as u16 {
            for b in a..n as u16 {
                m.set_link(SiteId(a), SiteId(b), LinkParams::new(v, 1.0));
                v += 1.0;
            }
        }
        let mut seen = std::collections::HashSet::new();
        for a in 0..n as u16 {
            for b in a..n as u16 {
                let l = m.link(SiteId(a), SiteId(b)).latency_s;
                assert!(seen.insert(l.to_bits()), "aliased cell {a},{b}");
            }
        }
    }

    #[test]
    fn serde_round_trip() {
        let m = model3();
        let json = serde_json::to_string(&m).unwrap();
        let back: NetworkModel = serde_json::from_str(&json).unwrap();
        assert_eq!(back, m);
    }
}
