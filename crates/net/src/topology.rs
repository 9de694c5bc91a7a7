//! Sites and the federation topology.
//!
//! "VDCE is composed of distributed sites, each of which has one or more
//! VDCE Servers" (§1). A [`Topology`] names the sites of a federation and
//! records which hosts live at which site; the per-host attributes
//! themselves live in each site's resource-performance database
//! (`vdce-repository`).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use std::fmt;

/// Dense identifier of a site within a federation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
#[serde(transparent)]
pub struct SiteId(pub u16);

impl SiteId {
    /// Index form.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for SiteId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "S{}", self.0)
    }
}

/// Static description of one site.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct SiteInfo {
    /// Identifier within the federation.
    pub id: SiteId,
    /// Human name, e.g. `syracuse-ece`.
    pub name: String,
    /// Host name of the VDCE server machine running the Site Manager.
    pub server_host: String,
    /// Names of the hosts belonging to this site (including the server).
    pub hosts: Vec<String>,
}

/// The federation topology: all sites, with host → site reverse lookup.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct Topology {
    sites: Vec<SiteInfo>,
    host_index: BTreeMap<String, SiteId>,
}

impl Topology {
    /// Empty topology.
    pub fn new() -> Self {
        Self::default()
    }

    /// Add a site; hosts must be globally unique across the federation.
    /// Returns the new site's id, or `None` if a host name collides.
    pub fn add_site(
        &mut self,
        name: impl Into<String>,
        server_host: impl Into<String>,
        hosts: Vec<String>,
    ) -> Option<SiteId> {
        let id = SiteId(self.sites.len() as u16);
        for (i, h) in hosts.iter().enumerate() {
            if self.host_index.contains_key(h) || hosts[..i].contains(h) {
                return None;
            }
        }
        for h in &hosts {
            self.host_index.insert(h.clone(), id);
        }
        self.sites.push(SiteInfo { id, name: name.into(), server_host: server_host.into(), hosts });
        Some(id)
    }

    /// Number of sites.
    pub fn site_count(&self) -> usize {
        self.sites.len()
    }

    /// Borrow a site.
    pub fn site(&self, id: SiteId) -> Option<&SiteInfo> {
        self.sites.get(id.index())
    }

    /// All sites in id order.
    pub fn sites(&self) -> &[SiteInfo] {
        &self.sites
    }

    /// Which site does `host` belong to?
    pub fn site_of_host(&self, host: &str) -> Option<SiteId> {
        self.host_index.get(host).copied()
    }

    /// Total number of hosts across the federation.
    pub fn host_count(&self) -> usize {
        self.sites.iter().map(|s| s.hosts.len()).sum()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Topology {
        let mut t = Topology::new();
        t.add_site(
            "syr-ece",
            "vdce1.syr.edu",
            vec!["vdce1.syr.edu".into(), "serval.syr.edu".into()],
        )
        .unwrap();
        t.add_site("syr-cs", "vdce2.syr.edu", vec!["vdce2.syr.edu".into()]).unwrap();
        t
    }

    #[test]
    fn sites_get_dense_ids() {
        let t = sample();
        assert_eq!(t.site_count(), 2);
        assert_eq!(t.site(SiteId(0)).unwrap().name, "syr-ece");
        assert_eq!(t.site(SiteId(1)).unwrap().name, "syr-cs");
        assert!(t.site(SiteId(2)).is_none());
    }

    #[test]
    fn host_reverse_lookup() {
        let t = sample();
        assert_eq!(t.site_of_host("serval.syr.edu"), Some(SiteId(0)));
        assert_eq!(t.site_of_host("vdce2.syr.edu"), Some(SiteId(1)));
        assert_eq!(t.site_of_host("ghost"), None);
        assert_eq!(t.host_count(), 3);
    }

    #[test]
    fn duplicate_host_across_sites_is_rejected() {
        let mut t = sample();
        assert!(t.add_site("dup", "x", vec!["serval.syr.edu".into()]).is_none());
        assert_eq!(t.site_count(), 2, "failed add must not leave a site behind");
    }

    #[test]
    fn display_of_site_id() {
        assert_eq!(SiteId(3).to_string(), "S3");
    }
}
