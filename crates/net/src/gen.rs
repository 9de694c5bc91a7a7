//! Reproducible federation generators.
//!
//! Each generator returns a ([`Topology`], [`NetworkModel`]) pair for a
//! family of wide-area layouts the experiments sweep over. All randomness
//! is seeded, so a given `(shape, parameters, seed)` triple always yields
//! the same federation.
//!
//! Host naming convention: host `h` of site `s` is `s{s}h{h}.vdce.org`;
//! the first host of each site doubles as its VDCE server machine.

use crate::model::{LinkParams, NetworkModel};
use crate::topology::{SiteId, Topology};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// Canonical host name of host `h` at site `s`.
pub(crate) fn host_name(site: usize, host: usize) -> String {
    format!("s{site}h{host}.vdce.org")
}

fn add_sites(sites: usize, hosts_per_site: usize) -> Topology {
    let mut topo = Topology::new();
    for s in 0..sites {
        let hosts: Vec<String> = (0..hosts_per_site).map(|h| host_name(s, h)).collect();
        topo.add_site(format!("site{s}"), host_name(s, 0), hosts)
            .expect("generated host names are unique");
    }
    topo
}

/// Star federation: every inter-site path goes through hub site 0.
/// Spoke↔hub links use the WAN default; spoke↔spoke links pay two hops.
pub fn star(sites: usize, hosts_per_site: usize) -> (Topology, NetworkModel) {
    let topo = add_sites(sites, hosts_per_site);
    let mut model = NetworkModel::with_defaults(sites);
    let hop = LinkParams::wan_default();
    for a in 1..sites {
        model.set_link(SiteId(0), SiteId(a as u16), hop);
        for b in (a + 1)..sites {
            model.set_link(
                SiteId(a as u16),
                SiteId(b as u16),
                LinkParams::new(2.0 * hop.latency_s, hop.bandwidth_bps / 2.0),
            );
        }
    }
    (topo, model)
}

/// Ring federation: latency grows with ring distance; bandwidth shrinks
/// with it.
pub fn ring(sites: usize, hosts_per_site: usize) -> (Topology, NetworkModel) {
    let topo = add_sites(sites, hosts_per_site);
    let mut model = NetworkModel::with_defaults(sites);
    let base = LinkParams::wan_default();
    for a in 0..sites {
        for b in (a + 1)..sites {
            let fwd = b - a;
            let dist = fwd.min(sites - fwd).max(1) as f64;
            model.set_link(
                SiteId(a as u16),
                SiteId(b as u16),
                LinkParams::new(base.latency_s * dist, base.bandwidth_bps / dist),
            );
        }
    }
    (topo, model)
}

/// Metro-cluster federation: `clusters` metropolitan areas of
/// `sites_per_cluster` sites each. Intra-cluster links are 4× faster than
/// the WAN default; inter-cluster links are 3× slower.
pub fn metro(
    clusters: usize,
    sites_per_cluster: usize,
    hosts_per_site: usize,
) -> (Topology, NetworkModel) {
    let sites = clusters * sites_per_cluster;
    let topo = add_sites(sites, hosts_per_site);
    let mut model = NetworkModel::with_defaults(sites);
    let wan = LinkParams::wan_default();
    let near = LinkParams::new(wan.latency_s / 4.0, wan.bandwidth_bps * 4.0);
    let far = LinkParams::new(wan.latency_s * 3.0, wan.bandwidth_bps / 3.0);
    for a in 0..sites {
        for b in (a + 1)..sites {
            let same = a / sites_per_cluster == b / sites_per_cluster;
            model.set_link(SiteId(a as u16), SiteId(b as u16), if same { near } else { far });
        }
    }
    (topo, model)
}

/// Uniform random federation: inter-site latency uniform in
/// [5 ms, 60 ms], bandwidth uniform in [0.5, 8] Mbyte/s. Deterministic in
/// `seed`.
pub fn uniform_random(sites: usize, hosts_per_site: usize, seed: u64) -> (Topology, NetworkModel) {
    let topo = add_sites(sites, hosts_per_site);
    let mut model = NetworkModel::with_defaults(sites);
    let mut rng = StdRng::seed_from_u64(seed);
    for a in 0..sites {
        for b in (a + 1)..sites {
            let latency = rng.gen_range(0.005..0.060);
            let bw = rng.gen_range(500_000.0..8_000_000.0);
            model.set_link(SiteId(a as u16), SiteId(b as u16), LinkParams::new(latency, bw));
        }
    }
    (topo, model)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn host_names_are_stable() {
        assert_eq!(host_name(2, 3), "s2h3.vdce.org");
    }

    #[test]
    fn star_routes_spokes_through_hub() {
        let (topo, model) = star(4, 2);
        assert_eq!(topo.site_count(), 4);
        assert_eq!(topo.host_count(), 8);
        let hub_spoke = model.distance(SiteId(0), SiteId(2));
        let spoke_spoke = model.distance(SiteId(1), SiteId(2));
        assert!(spoke_spoke > hub_spoke);
    }

    #[test]
    fn ring_distance_grows_with_hops_and_wraps() {
        let (_, model) = ring(6, 1);
        let one_hop = model.link(SiteId(0), SiteId(1)).latency_s;
        let three_hop = model.link(SiteId(0), SiteId(3)).latency_s;
        assert!((three_hop / one_hop - 3.0).abs() < 1e-9);
        // 0 -> 5 wraps: distance 1, not 5.
        let wrap = model.link(SiteId(0), SiteId(5)).latency_s;
        assert!((wrap - one_hop).abs() < 1e-12);
    }

    #[test]
    fn metro_prefers_cluster_neighbours() {
        let (topo, model) = metro(2, 3, 2);
        assert_eq!(topo.site_count(), 6);
        // Sites 0,1,2 in cluster A; 3,4,5 in cluster B.
        let near = model.distance(SiteId(0), SiteId(1));
        let far = model.distance(SiteId(0), SiteId(3));
        assert!(far > near * 3.0);
        // Nearest neighbours of site 0 are its cluster-mates.
        let nn = model.nearest_neighbours(SiteId(0), 2);
        assert_eq!(nn, vec![SiteId(1), SiteId(2)]);
    }

    #[test]
    fn uniform_random_is_deterministic_in_seed() {
        let (_, m1) = uniform_random(5, 1, 42);
        let (_, m2) = uniform_random(5, 1, 42);
        let (_, m3) = uniform_random(5, 1, 43);
        assert_eq!(m1, m2);
        assert_ne!(m1, m3);
    }

    #[test]
    fn uniform_random_latencies_within_bounds() {
        let (_, m) = uniform_random(8, 1, 7);
        for a in 0..8u16 {
            for b in (a + 1)..8u16 {
                let l = m.link(SiteId(a), SiteId(b));
                assert!(l.latency_s >= 0.005 && l.latency_s < 0.060);
                assert!(l.bandwidth_bps >= 500_000.0 && l.bandwidth_bps < 8_000_000.0);
            }
        }
    }

    #[test]
    fn every_generator_keeps_intra_site_default() {
        for (_, m) in [star(3, 1), ring(3, 1), metro(1, 3, 1), uniform_random(3, 1, 1)] {
            for s in 0..3u16 {
                assert_eq!(m.link(SiteId(s), SiteId(s)), LinkParams::intra_site_default());
            }
        }
    }
}
