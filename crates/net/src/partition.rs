//! Partition-aware reachability overlay.
//!
//! The paper's federation assumes every site can reach every other site
//! through the WAN. Real deployments lose that property during network
//! partitions and site outages, so the fault-tolerance layer needs a
//! first-class notion of *which site pairs are currently cut*. This
//! module keeps that state separate from [`crate::model::NetworkModel`]:
//! the model answers "how fast is this link when it works", the
//! [`PartitionState`] overlay answers "does this link work at all".
//!
//! Reachability is computed as graph connectivity over the surviving
//! direct links, so two sites on the same side of a partition remain
//! mutually reachable even if their direct link happens to be severed.

use serde::{Deserialize, Serialize};
use std::collections::BTreeSet;

use crate::topology::SiteId;

/// The set of currently severed inter-site links.
///
/// Pairs are stored unordered (`(min, max)`), links are full-duplex, and
/// a site is always reachable from itself. All operations are
/// deterministic; iteration order follows the `BTreeSet` ordering of the
/// normalised pairs.
#[derive(Debug, Clone, Default, PartialEq, Eq, Serialize, Deserialize)]
pub struct PartitionState {
    severed: BTreeSet<(u16, u16)>,
}

fn key(a: SiteId, b: SiteId) -> (u16, u16) {
    if a.0 <= b.0 {
        (a.0, b.0)
    } else {
        (b.0, a.0)
    }
}

impl PartitionState {
    /// A fully connected overlay: nothing severed.
    pub fn new() -> Self {
        Self::default()
    }

    /// Cut the direct link between `a` and `b`. Severing a site's link to
    /// itself is a no-op. Returns `true` if the link was previously up.
    pub fn sever(&mut self, a: SiteId, b: SiteId) -> bool {
        if a == b {
            return false;
        }
        self.severed.insert(key(a, b))
    }

    /// Restore the direct link between `a` and `b`. Returns `true` if the
    /// link was previously severed.
    pub fn restore(&mut self, a: SiteId, b: SiteId) -> bool {
        self.severed.remove(&key(a, b))
    }

    /// Cut every link crossing from group `a` to group `b` (a full
    /// inter-site partition between the two groups).
    pub fn sever_groups(&mut self, a: &[SiteId], b: &[SiteId]) {
        for &x in a {
            for &y in b {
                self.sever(x, y);
            }
        }
    }

    /// Restore every link crossing from group `a` to group `b` (the
    /// partition heals).
    pub fn heal_groups(&mut self, a: &[SiteId], b: &[SiteId]) {
        for &x in a {
            for &y in b {
                self.restore(x, y);
            }
        }
    }

    /// Cut every link touching `site` (the site fell off the network).
    pub fn isolate(&mut self, site: SiteId, all_sites: usize) {
        for other in 0..all_sites as u16 {
            self.sever(site, SiteId(other));
        }
    }

    /// Restore every link touching `site` (the site came back).
    pub fn rejoin(&mut self, site: SiteId) {
        self.severed.retain(|&(x, y)| x != site.0 && y != site.0);
    }

    /// Is the *direct* link between `a` and `b` severed?
    pub fn is_severed(&self, a: SiteId, b: SiteId) -> bool {
        a != b && self.severed.contains(&key(a, b))
    }

    /// Can traffic get from `a` to `b` at all, routing through other
    /// sites if necessary? `n_sites` bounds the site-id universe
    /// (`0..n_sites`); the federation's links form a full mesh, so this
    /// is a breadth-first search over the unsevered pairs.
    pub fn reachable(&self, a: SiteId, b: SiteId, n_sites: usize) -> bool {
        if a == b {
            return true;
        }
        if self.severed.is_empty() {
            return true;
        }
        let n = n_sites as u16;
        if a.0 >= n || b.0 >= n {
            return false;
        }
        let mut seen = vec![false; n_sites];
        let mut frontier = vec![a.0];
        seen[a.0 as usize] = true;
        while let Some(x) = frontier.pop() {
            for y in 0..n {
                if !seen[y as usize] && !self.is_severed(SiteId(x), SiteId(y)) {
                    if y == b.0 {
                        return true;
                    }
                    seen[y as usize] = true;
                    frontier.push(y);
                }
            }
        }
        false
    }

    /// Is the network whole (nothing severed)?
    pub fn is_whole(&self) -> bool {
        self.severed.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    const N: usize = 4;

    #[test]
    fn whole_network_reaches_everything() {
        let p = PartitionState::new();
        assert!(p.is_whole());
        for a in 0..N as u16 {
            for b in 0..N as u16 {
                assert!(p.reachable(SiteId(a), SiteId(b), N));
            }
        }
    }

    #[test]
    fn sever_is_symmetric_and_idempotent() {
        let mut p = PartitionState::new();
        assert!(p.sever(SiteId(2), SiteId(1)));
        assert!(!p.sever(SiteId(1), SiteId(2)), "same link, other direction");
        assert!(p.is_severed(SiteId(1), SiteId(2)));
        assert!(p.is_severed(SiteId(2), SiteId(1)));
        assert!(p.restore(SiteId(1), SiteId(2)));
        assert!(p.is_whole());
    }

    #[test]
    fn self_links_cannot_be_severed() {
        let mut p = PartitionState::new();
        assert!(!p.sever(SiteId(3), SiteId(3)));
        assert!(p.reachable(SiteId(3), SiteId(3), N));
    }

    #[test]
    fn single_severed_link_routes_around() {
        // 0–1 cut, but 0–2 and 2–1 are up: still reachable via 2.
        let mut p = PartitionState::new();
        p.sever(SiteId(0), SiteId(1));
        assert!(p.is_severed(SiteId(0), SiteId(1)));
        assert!(p.reachable(SiteId(0), SiteId(1), N), "mesh routes around one cut link");
    }

    #[test]
    fn group_partition_separates_the_sides() {
        let mut p = PartitionState::new();
        let a = [SiteId(0), SiteId(1)];
        let b = [SiteId(2), SiteId(3)];
        p.sever_groups(&a, &b);
        for &x in &a {
            for &y in &b {
                assert!(!p.reachable(x, y, N), "{x:?} must not reach {y:?}");
            }
        }
        // Same-side pairs stay connected.
        assert!(p.reachable(SiteId(0), SiteId(1), N));
        assert!(p.reachable(SiteId(2), SiteId(3), N));

        p.heal_groups(&a, &b);
        assert!(p.is_whole());
        assert!(p.reachable(SiteId(0), SiteId(3), N));
    }

    #[test]
    fn isolate_and_rejoin_a_site() {
        let mut p = PartitionState::new();
        p.isolate(SiteId(2), N);
        for other in [0u16, 1, 3] {
            assert!(!p.reachable(SiteId(2), SiteId(other), N));
        }
        assert!(p.reachable(SiteId(0), SiteId(3), N), "survivors stay connected");
        p.rejoin(SiteId(2));
        assert!(p.is_whole());
    }

    #[test]
    fn rejoin_leaves_other_cuts_in_place() {
        let mut p = PartitionState::new();
        p.isolate(SiteId(1), N);
        p.sever(SiteId(0), SiteId(3));
        p.rejoin(SiteId(1));
        assert!(p.is_severed(SiteId(0), SiteId(3)));
        assert!(!p.is_severed(SiteId(0), SiteId(1)));
    }

    #[test]
    fn serde_round_trip() {
        let mut p = PartitionState::new();
        p.sever_groups(&[SiteId(0)], &[SiteId(1), SiteId(2)]);
        let json = serde_json::to_string(&p).unwrap();
        let back: PartitionState = serde_json::from_str(&json).unwrap();
        assert_eq!(p, back);
    }

    #[test]
    fn out_of_range_sites_are_unreachable() {
        let mut p = PartitionState::new();
        p.sever(SiteId(0), SiteId(1));
        assert!(!p.reachable(SiteId(0), SiteId(9), 2));
    }
}
