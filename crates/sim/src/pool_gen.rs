//! Federation generators: sites, hosts, repositories, network.
//!
//! [`build_federation`] turns a [`FederationSpec`] into everything an
//! experiment needs: one [`SiteRepository`] per site populated with
//! heterogeneous host records, the matching [`Topology`] and
//! [`NetworkModel`], and ready-made [`SiteView`] snapshots.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};
use vdce_afg::MachineType;
use vdce_net::gen as netgen;
use vdce_net::model::NetworkModel;
use vdce_net::topology::{SiteId, Topology};
use vdce_repository::resources::ResourceRecord;
use vdce_repository::SiteRepository;
use vdce_sched::view::SiteView;

/// WAN layout families (see `vdce_net::gen`).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub enum WanShape {
    /// Hub-and-spoke.
    Star,
    /// Ring with distance-proportional latency.
    Ring,
    /// Metro clusters (argument: sites per cluster).
    Metro(usize),
    /// Uniform random link parameters.
    Random,
}

/// Parameters of a generated federation.
#[derive(Debug, Clone, Copy, PartialEq, Serialize, Deserialize)]
pub struct FederationSpec {
    /// Number of sites.
    pub sites: usize,
    /// Hosts per site.
    pub hosts_per_site: usize,
    /// Heterogeneity: host relative speeds are log-uniform in
    /// `[1, heterogeneity]`.
    pub heterogeneity: f64,
    /// Host memory in bytes (every host; memory pressure experiments
    /// override per host afterwards).
    pub memory: u64,
    /// Hosts per monitoring group.
    pub group_size: usize,
    /// WAN layout.
    pub shape: WanShape,
    /// RNG seed.
    pub seed: u64,
}

impl Default for FederationSpec {
    fn default() -> Self {
        FederationSpec {
            sites: 4,
            hosts_per_site: 8,
            heterogeneity: 4.0,
            memory: 1 << 30,
            group_size: 4,
            shape: WanShape::Random,
            seed: 7,
        }
    }
}

/// A generated federation.
pub struct Federation {
    /// Site topology (site names, host lists).
    pub topology: Topology,
    /// Inter-site network model.
    pub net: NetworkModel,
    /// One repository per site, index = site id.
    pub repos: Vec<SiteRepository>,
}

impl Federation {
    /// Snapshot every site's scheduling view.
    pub fn views(&self) -> Vec<SiteView> {
        self.repos.iter().enumerate().map(|(i, r)| SiteView::capture(SiteId(i as u16), r)).collect()
    }

    /// Snapshot one site's view.
    pub(crate) fn view(&self, site: SiteId) -> SiteView {
        SiteView::capture(site, &self.repos[site.index()])
    }

    /// All host names of one site.
    pub fn hosts(&self, site: SiteId) -> Vec<String> {
        self.topology.site(site).map(|s| s.hosts.clone()).unwrap_or_default()
    }
}

/// Build a federation from a spec. Deterministic in `spec.seed`.
pub fn build_federation(spec: &FederationSpec) -> Federation {
    let (topology, net) = match spec.shape {
        WanShape::Star => netgen::star(spec.sites, spec.hosts_per_site),
        WanShape::Ring => netgen::ring(spec.sites, spec.hosts_per_site),
        WanShape::Metro(per) => {
            let clusters = spec.sites.div_ceil(per.max(1));
            netgen::metro(clusters, per.max(1), spec.hosts_per_site)
        }
        WanShape::Random => netgen::uniform_random(spec.sites, spec.hosts_per_site, spec.seed),
    };
    let mut rng = StdRng::seed_from_u64(spec.seed ^ 0x5eed);
    let machine_cycle = MachineType::CONCRETE;
    let mut repos = Vec::with_capacity(topology.site_count());
    for site in topology.sites() {
        let repo = SiteRepository::new();
        repo.resources_mut(|db| {
            for (hi, host) in site.hosts.iter().enumerate() {
                let speed = if spec.heterogeneity > 1.0 {
                    let hi_ln = spec.heterogeneity.ln();
                    rng.gen_range(0.0..hi_ln).exp()
                } else {
                    1.0
                };
                let machine = machine_cycle[(site.id.index() + hi) % machine_cycle.len()];
                let group = format!("{}-g{}", site.name, hi / spec.group_size.max(1));
                db.upsert(ResourceRecord::new(
                    host.clone(),
                    format!("10.{}.{}.{}", site.id.0, hi / 250, hi % 250 + 1),
                    machine,
                    speed,
                    1,
                    spec.memory,
                    group,
                ));
            }
        });
        repos.push(repo);
    }
    Federation { topology, net, repos }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn federation_has_requested_shape() {
        let spec = FederationSpec { sites: 3, hosts_per_site: 5, ..FederationSpec::default() };
        let f = build_federation(&spec);
        assert_eq!(f.topology.site_count(), 3);
        assert_eq!(f.repos.len(), 3);
        for i in 0..3u16 {
            assert_eq!(f.repos[i as usize].resources(|db| db.len()), 5);
            assert_eq!(f.hosts(SiteId(i)).len(), 5);
        }
        assert_eq!(f.net.site_count(), 3);
    }

    #[test]
    fn heterogeneity_bounds_speeds() {
        let spec = FederationSpec { heterogeneity: 8.0, ..FederationSpec::default() };
        let f = build_federation(&spec);
        for repo in &f.repos {
            repo.resources(|db| {
                for r in db.iter() {
                    assert!(r.relative_speed >= 1.0 && r.relative_speed <= 8.0);
                }
            });
        }
    }

    #[test]
    fn homogeneous_pool_when_heterogeneity_is_one() {
        let spec = FederationSpec { heterogeneity: 1.0, ..FederationSpec::default() };
        let f = build_federation(&spec);
        f.repos[0].resources(|db| {
            assert!(db.iter().all(|r| r.relative_speed == 1.0));
        });
    }

    #[test]
    fn deterministic_in_seed() {
        let spec = FederationSpec::default();
        let a = build_federation(&spec);
        let b = build_federation(&spec);
        assert_eq!(a.repos[0].snapshot(), b.repos[0].snapshot());
        let c = build_federation(&FederationSpec { seed: 8, ..spec });
        assert_ne!(a.repos[0].snapshot(), c.repos[0].snapshot());
    }

    #[test]
    fn groups_partition_hosts() {
        let spec = FederationSpec {
            sites: 1,
            hosts_per_site: 10,
            group_size: 4,
            ..FederationSpec::default()
        };
        let f = build_federation(&spec);
        f.repos[0].resources(|db| {
            let groups = db.groups();
            assert_eq!(groups.len(), 3, "10 hosts / size 4 → 3 groups");
            let total: usize = groups.iter().map(|g| db.group_hosts(g).count()).sum();
            assert_eq!(total, 10);
        });
    }

    #[test]
    fn views_capture_every_site() {
        let f = build_federation(&FederationSpec::default());
        let views = f.views();
        assert_eq!(views.len(), 4);
        for (i, v) in views.iter().enumerate() {
            assert_eq!(v.site, SiteId(i as u16));
            assert_eq!(v.resources.up_hosts().count(), 8);
        }
    }

    #[test]
    fn metro_shape_builds() {
        let spec =
            FederationSpec { sites: 6, shape: WanShape::Metro(3), ..FederationSpec::default() };
        let f = build_federation(&spec);
        assert_eq!(f.topology.site_count(), 6);
    }
}
