//! Building and holding a VDCE federation.
//!
//! A [`Vdce`] owns, per site, a [`SiteManager`] and through it the
//! site's [`SiteRepository`], plus the federation-wide [`Topology`] and
//! [`NetworkModel`]. Users are registered in the user-accounts database
//! of every site (the paper's prototype replicated accounts across the
//! campus sites it spanned).

use crate::session::{LoginError, Session};
use vdce_afg::MachineType;
use vdce_net::model::{LinkParams, NetworkModel};
use vdce_net::topology::{SiteId, Topology};
use vdce_repository::accounts::AccessDomain;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::SiteRepository;
use vdce_runtime::{HostLockRegistry, SiteManager, Transport};

/// Environment-wide tunables.
#[derive(Debug, Clone, Copy)]
pub struct VdceConfig {
    /// Nearest-neighbour site count for users whose access domain allows
    /// remote scheduling.
    pub k_neighbours: usize,
    /// Data-plane transport for executions.
    pub transport: Transport,
    /// Application-Controller load threshold (§4.1).
    pub load_threshold: f64,
}

impl Default for VdceConfig {
    fn default() -> Self {
        VdceConfig { k_neighbours: 3, transport: Transport::InProc, load_threshold: 4.0 }
    }
}

/// A running VDCE federation.
pub struct Vdce {
    /// Per site, its manager, which owns the site's repository.
    sites: Vec<SiteManager>,
    topology: Topology,
    net: NetworkModel,
    config: VdceConfig,
    locks: HostLockRegistry,
}

/// Builder for [`Vdce`].
pub struct VdceBuilder {
    site_names: Vec<String>,
    hosts: Vec<(SiteId, ResourceRecord)>,
    users: Vec<(String, String, u8, AccessDomain)>,
    links: Vec<(SiteId, SiteId, LinkParams)>,
    config: VdceConfig,
}

impl Vdce {
    /// Start building a federation.
    pub fn builder() -> VdceBuilder {
        VdceBuilder {
            site_names: Vec::new(),
            hosts: Vec::new(),
            users: Vec::new(),
            links: Vec::new(),
            config: VdceConfig::default(),
        }
    }

    /// Federation topology.
    pub(crate) fn topology(&self) -> &Topology {
        &self.topology
    }

    /// Inter-site network model.
    pub(crate) fn net(&self) -> &NetworkModel {
        &self.net
    }

    /// Environment configuration.
    pub(crate) fn config(&self) -> &VdceConfig {
        &self.config
    }

    /// Number of sites.
    pub(crate) fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// The repository of one site.
    pub fn repository(&self, site: SiteId) -> &SiteRepository {
        self.sites[site.index()].repository()
    }

    /// The Site Manager of one site.
    pub fn site_manager(&self, site: SiteId) -> &SiteManager {
        &self.sites[site.index()]
    }

    /// The federation-wide host lock registry: all executions share it,
    /// so concurrent applications contend for hosts like concurrent VDCE
    /// users would.
    pub(crate) fn host_locks(&self) -> &HostLockRegistry {
        &self.locks
    }

    /// Authenticate against `site`'s user-accounts database and open a
    /// session homed there — the paper's "end-user establishes a URL
    /// connection to the VDCE Server … After user authentication, the
    /// Application Editor is loaded" (§2).
    pub fn login(
        &self,
        site: SiteId,
        user: &str,
        password: &str,
    ) -> Result<Session<'_>, LoginError> {
        Session::open(self, site, user, password)
    }
}

impl VdceBuilder {
    /// Add a site; returns its id. The first host added to the site
    /// becomes its VDCE server machine.
    pub fn add_site(&mut self, name: impl Into<String>) -> SiteId {
        let id = SiteId(self.site_names.len() as u16);
        self.site_names.push(name.into());
        id
    }

    /// Add a host to a site.
    pub fn add_host(
        &mut self,
        site: SiteId,
        name: impl Into<String>,
        machine: MachineType,
        relative_speed: f64,
        memory: u64,
    ) -> &mut Self {
        let name = name.into();
        let n = self.hosts.iter().filter(|(s, _)| *s == site).count();
        let record = ResourceRecord::new(
            name,
            format!("10.{}.0.{}", site.0, n + 1),
            machine,
            relative_speed,
            1,
            memory,
            format!("{}-g{}", self.site_names[site.index()], n / 8),
        );
        self.hosts.push((site, record));
        self
    }

    /// Register a user (replicated to every site's accounts database).
    pub fn add_user(
        &mut self,
        name: impl Into<String>,
        password: impl Into<String>,
        priority: u8,
        domain: AccessDomain,
    ) -> &mut Self {
        self.users.push((name.into(), password.into(), priority, domain));
        self
    }

    /// Override one inter-site (or intra-site, when `a == b`) link.
    pub fn set_link(&mut self, a: SiteId, b: SiteId, params: LinkParams) -> &mut Self {
        self.links.push((a, b, params));
        self
    }

    /// Override the environment configuration.
    pub fn config(&mut self, config: VdceConfig) -> &mut Self {
        self.config = config;
        self
    }

    /// Finish: materialise repositories, managers, topology and network.
    pub fn build(self) -> Vdce {
        let mut topology = Topology::new();
        let mut sites = Vec::with_capacity(self.site_names.len());
        for (i, name) in self.site_names.iter().enumerate() {
            let id = SiteId(i as u16);
            let host_names: Vec<String> = self
                .hosts
                .iter()
                .filter(|(s, _)| *s == id)
                .map(|(_, r)| r.host_name.clone())
                .collect();
            let server = host_names.first().cloned().unwrap_or_else(|| format!("{name}-server"));
            topology
                .add_site(name.clone(), server, host_names)
                .expect("host names must be unique across the federation");

            let repo = SiteRepository::new();
            repo.resources_mut(|db| {
                for (s, r) in &self.hosts {
                    if *s == id {
                        db.upsert(r.clone());
                    }
                }
            });
            repo.accounts_mut(|db| {
                for (user, pass, prio, domain) in &self.users {
                    db.add_user(user, pass, *prio, *domain).expect("builder users are unique");
                }
            });
            sites.push(SiteManager::new(id, repo));
        }
        let mut net = NetworkModel::with_defaults(self.site_names.len().max(1));
        for (a, b, params) in self.links {
            net.set_link(a, b, params);
        }
        Vdce { sites, topology, net, config: self.config, locks: HostLockRegistry::new() }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small() -> Vdce {
        let mut b = Vdce::builder();
        let s0 = b.add_site("a");
        let s1 = b.add_site("b");
        b.add_host(s0, "a0", MachineType::LinuxPc, 1.0, 1 << 30);
        b.add_host(s0, "a1", MachineType::SunSolaris, 2.0, 1 << 30);
        b.add_host(s1, "b0", MachineType::LinuxPc, 4.0, 1 << 30);
        b.add_user("u", "p", 1, AccessDomain::Global);
        b.build()
    }

    #[test]
    fn builder_materialises_sites_hosts_users() {
        let v = small();
        assert_eq!(v.site_count(), 2);
        assert_eq!(v.topology().host_count(), 3);
        assert_eq!(v.repository(SiteId(0)).resources(|db| db.len()), 2);
        assert_eq!(v.repository(SiteId(1)).resources(|db| db.len()), 1);
        // Users replicated on every site.
        for s in 0..2u16 {
            assert!(v.repository(SiteId(s)).accounts(|db| db.authenticate("u", "p").is_ok()));
        }
        // Server host is the first host of the site.
        assert_eq!(v.topology().site(SiteId(0)).unwrap().server_host, "a0");
    }

    #[test]
    fn login_succeeds_and_fails_appropriately() {
        let v = small();
        assert!(v.login(SiteId(0), "u", "p").is_ok());
        assert!(v.login(SiteId(0), "u", "wrong").is_err());
        assert!(v.login(SiteId(1), "ghost", "p").is_err());
    }

    #[test]
    fn link_overrides_apply() {
        let mut b = Vdce::builder();
        let s0 = b.add_site("a");
        let s1 = b.add_site("b");
        b.add_host(s0, "a0", MachineType::LinuxPc, 1.0, 1);
        b.add_host(s1, "b0", MachineType::LinuxPc, 1.0, 1);
        b.set_link(s0, s1, LinkParams::new(9.0, 1.0));
        let v = b.build();
        assert_eq!(v.net().link(s0, s1).latency_s, 9.0);
    }

    #[test]
    #[should_panic(expected = "builder users are unique")]
    fn duplicate_builder_users_panic() {
        let mut b = Vdce::builder();
        let s = b.add_site("x");
        b.add_host(s, "h", MachineType::LinuxPc, 1.0, 1);
        b.add_user("u", "p", 1, AccessDomain::Global);
        b.add_user("u", "q", 2, AccessDomain::Global);
        let _ = b.build();
    }

    #[test]
    fn empty_site_federation_builds_and_rejects_scheduling() {
        use vdce_afg::{AfgBuilder, AfgDocument, TaskLibrary};
        let mut b = Vdce::builder();
        let s = b.add_site("empty");
        b.add_user("u", "p", 1, AccessDomain::LocalSite);
        let v = b.build();
        let session = v.login(s, "u", "p").unwrap();
        let lib = TaskLibrary::standard();
        let mut bb = AfgBuilder::new("t", &lib);
        let src = bb.add_task("Source", "s", 10).unwrap();
        let k = bb.add_task("Sink", "k", 10).unwrap();
        bb.connect(src, 0, k, 0).unwrap();
        let doc = AfgDocument::new("u", bb.build().unwrap()).unwrap();
        // No hosts anywhere → scheduling error, not a panic.
        assert!(session.submit(&doc).is_err());
    }

    #[test]
    fn site_of_host_resolves() {
        let v = small();
        assert_eq!(v.topology().site_of_host("b0"), Some(SiteId(1)));
    }
}
