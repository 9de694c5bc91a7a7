//! The mutable, journaled dataset catalog.

use crate::events::{CatalogState, DataEvent, DATA_JOURNAL_TAG};
use crate::view::{DataView, DatasetSpec};
use std::fmt;
use vdce_afg::DatasetId;
use vdce_net::SiteId;
use vdce_store::{fnv1a_json, Journal};

/// Typed failure of a catalog operation.
#[derive(Debug, Clone, PartialEq)]
pub enum DataError {
    /// The dataset id is not registered.
    UnknownDataset {
        /// The id looked up.
        id: DatasetId,
    },
    /// The dataset is already registered.
    AlreadyRegistered {
        /// The id registered twice.
        id: DatasetId,
    },
    /// The site already holds a replica of this dataset.
    DuplicateReplica {
        /// The dataset.
        id: DatasetId,
        /// The site.
        site: SiteId,
    },
    /// Adding the replica would exceed the site's storage capacity.
    CapacityExceeded {
        /// The site that is full.
        site: SiteId,
        /// Bytes the replica needs.
        needed: u64,
        /// Bytes currently charged at the site.
        used: u64,
        /// The site's capacity in bytes.
        capacity: u64,
    },
    /// The replica to invalidate does not exist.
    NoSuchReplica {
        /// The dataset.
        id: DatasetId,
        /// The site named.
        site: SiteId,
    },
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::UnknownDataset { id } => write!(f, "unknown dataset {id}"),
            DataError::AlreadyRegistered { id } => write!(f, "dataset {id} already registered"),
            DataError::DuplicateReplica { id, site } => {
                write!(f, "site {site} already holds a replica of {id}")
            }
            DataError::CapacityExceeded { site, needed, used, capacity } => write!(
                f,
                "storage capacity exceeded at {site}: need {needed} B with {used}/{capacity} B used"
            ),
            DataError::NoSuchReplica { id, site } => {
                write!(f, "no replica of {id} at {site}")
            }
        }
    }
}

impl std::error::Error for DataError {}

/// The federation-wide dataset catalog.
///
/// Mutations go through typed methods that validate against the current
/// state, journal the corresponding [`DataEvent`] under the `data` tag
/// *before* applying it (write-ahead, like the site repository), and
/// return a typed [`DataError`] on rejection — rejected operations are
/// never journaled, so a journal replays to exactly this state.
///
/// Capacity rejections are additionally counted in
/// [`DatasetCatalog::violations`], the operational counter the
/// `data` experiment asserts to be zero.
#[derive(Debug, Clone, Default)]
pub struct DatasetCatalog {
    state: CatalogState,
    journal: Journal,
    violations: u64,
}

impl DatasetCatalog {
    /// Empty catalog, journaling disabled.
    pub fn new() -> Self {
        DatasetCatalog::default()
    }

    /// Route every subsequent accepted event through `journal`.
    pub fn attach_journal(&mut self, journal: Journal) {
        self.journal = journal;
    }

    /// The current state (what the journal replays to).
    pub fn state(&self) -> &CatalogState {
        &self.state
    }

    /// Deterministic FNV-1a fingerprint of the serialized state.
    pub fn state_hash(&self) -> u64 {
        fnv1a_json(&self.state)
    }

    /// Storage-capacity rejections observed so far (not part of the
    /// replayed state; an operational health counter).
    pub fn violations(&self) -> u64 {
        self.violations
    }

    /// Number of registered datasets.
    pub fn len(&self) -> usize {
        self.state.datasets.len()
    }

    /// Is the catalog empty?
    pub fn is_empty(&self) -> bool {
        self.state.datasets.is_empty()
    }

    fn commit(&mut self, event: DataEvent) {
        if self.journal.is_enabled() {
            let payload = serde_json::to_string(&event).expect("data events always serialize");
            self.journal.append(DATA_JOURNAL_TAG, &payload);
        }
        let applied = event.apply(&mut self.state);
        debug_assert!(applied, "validated events always apply");
    }

    /// Set the storage capacity of `site` in bytes.
    pub fn set_capacity(&mut self, site: SiteId, bytes: u64) {
        self.commit(DataEvent::SetCapacity { site, bytes });
    }

    /// Register a new dataset of `size` bytes (no replicas yet).
    pub(crate) fn register_dataset(&mut self, id: DatasetId, size: u64) -> Result<(), DataError> {
        if self.state.datasets.contains_key(&id) {
            return Err(DataError::AlreadyRegistered { id });
        }
        self.commit(DataEvent::Register { id, size });
        Ok(())
    }

    /// Add a replica of `id` at `site`, charging the dataset size
    /// against the site's capacity. A capacity rejection increments
    /// [`DatasetCatalog::violations`].
    pub(crate) fn add_replica(
        &mut self,
        id: DatasetId,
        site: SiteId,
        storage_cost: f64,
    ) -> Result<(), DataError> {
        let Some(record) = self.state.datasets.get(&id) else {
            return Err(DataError::UnknownDataset { id });
        };
        if record.replicas.iter().any(|r| r.site == site) {
            return Err(DataError::DuplicateReplica { id, site });
        }
        let used = self.state.used.get(&site).copied().unwrap_or(0);
        if let Some(cap) = self.state.capacity.get(&site) {
            if used.saturating_add(record.size) > *cap {
                self.violations += 1;
                return Err(DataError::CapacityExceeded {
                    site,
                    needed: record.size,
                    used,
                    capacity: *cap,
                });
            }
        }
        self.commit(DataEvent::AddReplica { id, site, storage_cost });
        Ok(())
    }

    /// Drop the replica of `id` at `site`, refunding its bytes.
    pub fn invalidate_replica(&mut self, id: DatasetId, site: SiteId) -> Result<(), DataError> {
        let Some(record) = self.state.datasets.get(&id) else {
            return Err(DataError::UnknownDataset { id });
        };
        if !record.replicas.iter().any(|r| r.site == site) {
            return Err(DataError::NoSuchReplica { id, site });
        }
        self.commit(DataEvent::Invalidate { id, site });
        Ok(())
    }

    /// Immutable scheduler-facing snapshot: per dataset its size, live
    /// replica sites (ascending, deduplicated) and home site, plus the
    /// bytes left at every capacity-capped site.
    pub fn view(&self) -> DataView {
        let mut datasets = Vec::with_capacity(self.state.datasets.len());
        for (id, record) in &self.state.datasets {
            let mut sites: Vec<SiteId> = record.replicas.iter().map(|r| r.site).collect();
            sites.sort_unstable();
            sites.dedup();
            let home = record.replicas.first().map(|r| r.site);
            datasets.push((*id, DatasetSpec { size: record.size, sites, home }));
        }
        let mut view = DataView::from_sorted(datasets);
        for &site in self.state.capacity.keys() {
            if let Some(left) = self.state.capacity_left(site) {
                view.set_free(site, left);
            }
        }
        view
    }

    /// Rebuild a catalog by replaying `data`-tagged journal records
    /// (the `(tag, payload)` pairs of [`Journal::history`]). Records
    /// under other tags are skipped; the rebuilt catalog journals to a
    /// disabled journal.
    pub fn replay<'a>(history: impl IntoIterator<Item = (&'a str, &'a str)>) -> Self {
        let mut state = CatalogState::default();
        for (tag, payload) in history {
            if tag != DATA_JOURNAL_TAG {
                continue;
            }
            if let Ok(event) = serde_json::from_str::<DataEvent>(payload) {
                event.apply(&mut state);
            }
        }
        DatasetCatalog { state, journal: Journal::disabled(), violations: 0 }
    }
}

/// Convenience builder used by tests and workload generators: register
/// `id` of `size` bytes with replicas at `sites` (first = home), unit
/// storage cost.
pub fn seed_dataset(
    catalog: &mut DatasetCatalog,
    id: DatasetId,
    size: u64,
    sites: &[SiteId],
) -> Result<(), DataError> {
    catalog.register_dataset(id, size)?;
    for &s in sites {
        catalog.add_replica(id, s, 1.0)?;
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_store::SnapshotPolicy;

    #[test]
    fn typed_errors_cover_every_rejection() {
        let mut cat = DatasetCatalog::new();
        cat.set_capacity(SiteId(0), 100);
        assert_eq!(
            cat.add_replica(DatasetId(9), SiteId(0), 1.0),
            Err(DataError::UnknownDataset { id: DatasetId(9) })
        );
        cat.register_dataset(DatasetId(9), 80).unwrap();
        assert_eq!(
            cat.register_dataset(DatasetId(9), 80),
            Err(DataError::AlreadyRegistered { id: DatasetId(9) })
        );
        cat.add_replica(DatasetId(9), SiteId(0), 1.0).unwrap();
        assert_eq!(
            cat.add_replica(DatasetId(9), SiteId(0), 1.0),
            Err(DataError::DuplicateReplica { id: DatasetId(9), site: SiteId(0) })
        );
        cat.register_dataset(DatasetId(10), 80).unwrap();
        assert_eq!(cat.violations(), 0);
        assert_eq!(
            cat.add_replica(DatasetId(10), SiteId(0), 1.0),
            Err(DataError::CapacityExceeded {
                site: SiteId(0),
                needed: 80,
                used: 80,
                capacity: 100
            })
        );
        assert_eq!(cat.violations(), 1, "capacity rejections are counted");
        assert_eq!(
            cat.invalidate_replica(DatasetId(10), SiteId(0)),
            Err(DataError::NoSuchReplica { id: DatasetId(10), site: SiteId(0) })
        );
    }

    #[test]
    fn journal_replay_reconstructs_the_state_bit_identically() {
        let journal = Journal::enabled(SnapshotPolicy::manual());
        let mut cat = DatasetCatalog::new();
        cat.attach_journal(journal.clone());
        cat.set_capacity(SiteId(0), 1 << 30);
        seed_dataset(&mut cat, DatasetId(1), 1 << 20, &[SiteId(0), SiteId(1)]).unwrap();
        seed_dataset(&mut cat, DatasetId(2), 2 << 20, &[SiteId(1)]).unwrap();
        cat.invalidate_replica(DatasetId(1), SiteId(1)).unwrap();
        // A rejected operation must NOT land in the journal.
        assert!(cat.register_dataset(DatasetId(1), 5).is_err());

        let history = journal.history();
        let replayed =
            DatasetCatalog::replay(history.iter().map(|(t, p)| (t.as_str(), p.as_str())));
        assert_eq!(replayed.state(), cat.state());
        assert_eq!(replayed.state_hash(), cat.state_hash());
        assert_eq!(
            serde_json::to_string(replayed.state()).unwrap(),
            serde_json::to_string(cat.state()).unwrap(),
            "bit-identical serialized state"
        );
    }

    #[test]
    fn view_orders_sites_and_keeps_registration_home() {
        let mut cat = DatasetCatalog::new();
        seed_dataset(&mut cat, DatasetId(5), 64, &[SiteId(2), SiteId(0)]).unwrap();
        let view = cat.view();
        let spec = view.get(DatasetId(5)).unwrap();
        assert_eq!(spec.sites, vec![SiteId(0), SiteId(2)], "ascending");
        assert_eq!(spec.home, Some(SiteId(2)), "home = first registered replica");
        let primary = view.primary_only();
        assert_eq!(primary.get(DatasetId(5)).unwrap().sites, vec![SiteId(2)]);
    }
}
