//! Per-run snapshot of site-pair transfer parameters.
//!
//! The site scheduler's inner loop charges every candidate site a
//! `transfer_time(S_parent, S_j, bytes)` per in-edge; with `n` tasks, `s`
//! involved sites and `e` edges that is `O(e·s)` calls into
//! [`NetworkModel::transfer_time`], each paying the symmetric
//! upper-triangle index arithmetic. [`TransferCache`] captures the whole
//! link matrix once per scheduling run into a dense row-major table so
//! the hot path is a single multiply-add away from the [`LinkParams`].
//!
//! The cache evaluates [`LinkParams::transfer_time`] itself, so its
//! results are bit-identical to the model it snapshots. It is a frozen
//! copy: rebuild it per run if the network monitor may have written link
//! observations into the model since.

use crate::model::{LinkParams, NetworkModel};
use crate::topology::SiteId;

/// Dense site × site snapshot of a [`NetworkModel`]'s link parameters.
#[derive(Debug, Clone, PartialEq)]
pub struct TransferCache {
    sites: usize,
    /// Row-major `sites × sites` link table (symmetric by construction).
    links: Vec<LinkParams>,
}

impl TransferCache {
    /// Snapshot every site pair of `net`.
    pub fn new(net: &NetworkModel) -> Self {
        let sites = net.site_count();
        let mut links = Vec::with_capacity(sites * sites);
        for a in 0..sites as u16 {
            for b in 0..sites as u16 {
                links.push(net.link(SiteId(a), SiteId(b)));
            }
        }
        TransferCache { sites, links }
    }

    /// The snapshotted link between `a` and `b`.
    #[inline]
    pub(crate) fn link(&self, a: SiteId, b: SiteId) -> LinkParams {
        self.links[a.index() * self.sites + b.index()]
    }

    /// `transfer_time(S_a, S_b)` for `bytes`, bit-identical to
    /// [`NetworkModel::transfer_time`] on the snapshotted model.
    #[inline]
    pub fn transfer_time(&self, a: SiteId, b: SiteId, bytes: u64) -> f64 {
        self.link(a, b).transfer_time(bytes)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn model() -> NetworkModel {
        let mut m = NetworkModel::with_defaults(4);
        m.set_link(SiteId(0), SiteId(1), LinkParams::new(0.010, 2_000_000.0));
        m.set_link(SiteId(1), SiteId(3), LinkParams::new(0.030, 1_500_000.0));
        m.set_link(SiteId(2), SiteId(2), LinkParams::new(0.000_1, 9_000_000.0));
        m
    }

    #[test]
    fn snapshot_matches_model_on_every_pair_bit_for_bit() {
        let m = model();
        let c = TransferCache::new(&m);
        for a in 0..4u16 {
            for b in 0..4u16 {
                for bytes in [0u64, 1, 1 << 20, u32::MAX as u64] {
                    let want = m.transfer_time(SiteId(a), SiteId(b), bytes);
                    let got = c.transfer_time(SiteId(a), SiteId(b), bytes);
                    assert_eq!(want.to_bits(), got.to_bits(), "pair {a}-{b}, {bytes} B");
                }
            }
        }
    }

    #[test]
    fn snapshot_is_detached_from_later_model_edits() {
        let mut m = model();
        let c = TransferCache::new(&m);
        let before = c.transfer_time(SiteId(0), SiteId(1), 1 << 20);
        m.set_link(SiteId(0), SiteId(1), LinkParams::new(9.0, 1.0));
        assert_eq!(c.transfer_time(SiteId(0), SiteId(1), 1 << 20), before);
        assert_ne!(m.transfer_time(SiteId(0), SiteId(1), 1 << 20), before);
    }

    #[test]
    fn snapshot_is_symmetric() {
        let c = TransferCache::new(&model());
        for a in 0..4u16 {
            for b in 0..4u16 {
                assert_eq!(c.link(SiteId(a), SiteId(b)), c.link(SiteId(b), SiteId(a)));
            }
        }
    }
}
