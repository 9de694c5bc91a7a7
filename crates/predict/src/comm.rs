//! Transfer-time prediction.
//!
//! The site-scheduler algorithm charges non-entry tasks
//! `transfer_time(S_parent, S_j) × file_size` before adding
//! `Predict(task, R_j)` (Figure 2). The paper's phrasing multiplies a
//! per-byte transfer time by the file size; with a latency term this is
//! exactly [`vdce_net::LinkParams::transfer_time`]. This module adds the
//! cheapest-replica helper for dataset inputs.
//!
//! **Where the bytes come from.** Dataflow edges and legacy *inline
//! file* inputs (`IoSpec::File`) are charged from the **parent's site
//! only**, exactly as in Figure 2 — inline files have one location, the
//! VDCE home area of the site that produced them. An input naming a
//! catalog *dataset* (`IoSpec::Dataset`, `vdce-data`) instead has
//! replicas at several sites and is charged
//! `min` over live replicas of [`transfer_seconds`] from each replica
//! site ([`cheapest_source_seconds`]); the scheduler (`vdce-sched`)
//! picks the compute site and the replica jointly and records the
//! chosen source in the placement table.

use vdce_net::model::NetworkModel;
use vdce_net::topology::SiteId;

/// Predicted seconds to move `bytes` from `from` to `to` under `net`.
#[inline]
pub(crate) fn transfer_seconds(net: &NetworkModel, from: SiteId, to: SiteId, bytes: u64) -> f64 {
    net.transfer_time(from, to, bytes)
}

/// Cheapest source for a replicated dataset read at `to`: the minimal
/// `transfer_seconds` over the candidate `sources`, ties broken
/// toward the earliest listed source (the scheduler passes replica
/// sites in ascending id order, making the tie-break the lowest site
/// id). Returns `None` when there is no source — the caller turns that
/// into a typed no-feasible-replica error.
pub fn cheapest_source_seconds(
    net: &NetworkModel,
    to: SiteId,
    sources: &[SiteId],
    bytes: u64,
) -> Option<(SiteId, f64)> {
    let mut best: Option<(SiteId, f64)> = None;
    for &src in sources {
        let t = transfer_seconds(net, src, to, bytes);
        if best.is_none_or(|(_, bt)| t < bt) {
            best = Some((src, t));
        }
    }
    best
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_net::model::LinkParams;

    fn net() -> NetworkModel {
        let mut m = NetworkModel::with_defaults(3);
        m.set_link(SiteId(0), SiteId(1), LinkParams::new(0.01, 1_000_000.0));
        m.set_link(SiteId(0), SiteId(2), LinkParams::new(0.05, 500_000.0));
        m
    }

    #[test]
    fn transfer_seconds_matches_link_model() {
        let n = net();
        let t = transfer_seconds(&n, SiteId(0), SiteId(1), 1_000_000);
        assert!((t - 1.01).abs() < 1e-12);
    }

    #[test]
    fn cheapest_source_picks_the_best_link_and_breaks_ties_low() {
        let n = net();
        // S1 is the fast source for a read at S0.
        let (src, t) =
            cheapest_source_seconds(&n, SiteId(0), &[SiteId(1), SiteId(2)], 1_000_000).unwrap();
        assert_eq!(src, SiteId(1));
        assert!((t - 1.01).abs() < 1e-9);
        // A local replica beats any remote one.
        let (src, _) =
            cheapest_source_seconds(&n, SiteId(2), &[SiteId(1), SiteId(2)], 1_000_000).unwrap();
        assert_eq!(src, SiteId(2));
        // No sources → no answer.
        assert_eq!(cheapest_source_seconds(&n, SiteId(0), &[], 1), None);
        // Equal-cost sources resolve to the first listed (lowest id).
        let m = NetworkModel::with_defaults(3);
        let (src, _) =
            cheapest_source_seconds(&m, SiteId(0), &[SiteId(1), SiteId(2)], 1 << 20).unwrap();
        assert_eq!(src, SiteId(1));
    }

    #[test]
    fn local_inputs_are_cheap_but_not_free() {
        let n = net();
        let local = transfer_seconds(&n, SiteId(1), SiteId(1), 1 << 20);
        let remote = transfer_seconds(&n, SiteId(1), SiteId(0), 1 << 20);
        assert!(local > 0.0);
        assert!(local < remote);
    }
}
