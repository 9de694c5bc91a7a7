//! Catalog mutations as pure, journalable events.
//!
//! Mirrors the `vdce-repository` write-ahead shape: every mutation is a
//! serializable [`DataEvent`] with a pure [`DataEvent::apply`] on the
//! serializable [`CatalogState`]; the catalog journals the event first
//! and applies it second, so `snapshot + replay` reconstructs the exact
//! state (`vdce-store`, DESIGN.md §16).

use serde::{Deserialize, Serialize};
use std::collections::BTreeMap;
use vdce_afg::DatasetId;
use vdce_net::topology::SiteId;

/// Journal tag every catalog event is framed under.
pub(crate) const DATA_JOURNAL_TAG: &str = "data";

/// One copy of a dataset at a site.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct Replica {
    /// Site holding the copy.
    pub site: SiteId,
    /// Storage cost weight for holding the copy there (relative units;
    /// the broker reports it, placement does not price it yet).
    pub(crate) storage_cost: f64,
}

/// Catalog entry for one dataset.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetRecord {
    /// Size in bytes (what a transfer from any replica moves).
    pub size: u64,
    /// Live replicas in registration order; the first is the *home*
    /// (primary) replica, the one the parent-site-only baseline uses.
    pub replicas: Vec<Replica>,
}

/// One catalog mutation.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum DataEvent {
    /// Set the storage capacity of a site in bytes. Sites without a
    /// recorded capacity are unlimited.
    SetCapacity {
        /// The site.
        site: SiteId,
        /// Capacity in bytes.
        bytes: u64,
    },
    /// Register a new dataset (no replicas yet).
    Register {
        /// Catalog id.
        id: DatasetId,
        /// Size in bytes.
        size: u64,
    },
    /// Add a replica of a registered dataset at a site, charging the
    /// dataset size against the site's storage capacity.
    AddReplica {
        /// Catalog id.
        id: DatasetId,
        /// Site receiving the copy.
        site: SiteId,
        /// Storage cost weight at that site.
        storage_cost: f64,
    },
    /// Invalidate (drop) the replica at a site, refunding its bytes.
    Invalidate {
        /// Catalog id.
        id: DatasetId,
        /// Site losing the copy.
        site: SiteId,
    },
}

/// The serializable catalog state: the product the journal replays to.
#[derive(Debug, Clone, PartialEq, Default, Serialize, Deserialize)]
pub struct CatalogState {
    /// All registered datasets.
    pub datasets: BTreeMap<DatasetId, DatasetRecord>,
    /// Per-site storage capacity in bytes (absent = unlimited).
    pub capacity: BTreeMap<SiteId, u64>,
    /// Per-site bytes currently charged by replicas.
    pub used: BTreeMap<SiteId, u64>,
}

impl CatalogState {
    /// Bytes still free at `site`, `None` if the site is uncapped.
    pub(crate) fn capacity_left(&self, site: SiteId) -> Option<u64> {
        let cap = *self.capacity.get(&site)?;
        Some(cap.saturating_sub(self.used.get(&site).copied().unwrap_or(0)))
    }
}

impl DataEvent {
    /// Apply the event to `state`. Returns `false` (leaving the state
    /// untouched) when the event is invalid against the current state:
    /// re-registration, replica of an unknown dataset, duplicate
    /// replica, capacity overflow, or invalidating a replica that is
    /// not there. Pure and deterministic — replaying a journal yields
    /// the same verdicts in the same order.
    pub(crate) fn apply(&self, state: &mut CatalogState) -> bool {
        match self {
            DataEvent::SetCapacity { site, bytes } => {
                state.capacity.insert(*site, *bytes);
                true
            }
            DataEvent::Register { id, size } => {
                if state.datasets.contains_key(id) {
                    return false;
                }
                state.datasets.insert(*id, DatasetRecord { size: *size, replicas: Vec::new() });
                true
            }
            DataEvent::AddReplica { id, site, storage_cost } => {
                let Some(record) = state.datasets.get(id) else {
                    return false;
                };
                if record.replicas.iter().any(|r| r.site == *site) {
                    return false;
                }
                let used = state.used.get(site).copied().unwrap_or(0);
                if let Some(cap) = state.capacity.get(site) {
                    if used.saturating_add(record.size) > *cap {
                        return false;
                    }
                }
                let size = record.size;
                let record = state.datasets.get_mut(id).expect("checked above");
                record.replicas.push(Replica { site: *site, storage_cost: *storage_cost });
                state.used.insert(*site, used + size);
                true
            }
            DataEvent::Invalidate { id, site } => {
                let Some(record) = state.datasets.get_mut(id) else {
                    return false;
                };
                let Some(pos) = record.replicas.iter().position(|r| r.site == *site) else {
                    return false;
                };
                record.replicas.remove(pos);
                let size = record.size;
                let used = state.used.entry(*site).or_insert(0);
                *used = used.saturating_sub(size);
                true
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn apply_is_pure_on_rejection() {
        let mut s = CatalogState::default();
        assert!(DataEvent::Register { id: DatasetId(1), size: 100 }.apply(&mut s));
        let before = s.clone();
        assert!(!DataEvent::Register { id: DatasetId(1), size: 999 }.apply(&mut s));
        assert!(!DataEvent::AddReplica { id: DatasetId(2), site: SiteId(0), storage_cost: 1.0 }
            .apply(&mut s));
        assert!(!DataEvent::Invalidate { id: DatasetId(1), site: SiteId(0) }.apply(&mut s));
        assert_eq!(s, before, "rejected events leave the state untouched");
    }

    #[test]
    fn capacity_is_charged_and_refunded() {
        let mut s = CatalogState::default();
        DataEvent::SetCapacity { site: SiteId(0), bytes: 150 }.apply(&mut s);
        DataEvent::Register { id: DatasetId(1), size: 100 }.apply(&mut s);
        assert!(DataEvent::AddReplica { id: DatasetId(1), site: SiteId(0), storage_cost: 1.0 }
            .apply(&mut s));
        assert_eq!(s.capacity_left(SiteId(0)), Some(50));
        // Second copy would need 100 more bytes — over the cap.
        DataEvent::Register { id: DatasetId(2), size: 100 }.apply(&mut s);
        assert!(!DataEvent::AddReplica { id: DatasetId(2), site: SiteId(0), storage_cost: 1.0 }
            .apply(&mut s));
        // Refund restores room.
        assert!(DataEvent::Invalidate { id: DatasetId(1), site: SiteId(0) }.apply(&mut s));
        assert_eq!(s.capacity_left(SiteId(0)), Some(150));
        assert!(DataEvent::AddReplica { id: DatasetId(2), site: SiteId(0), storage_cost: 1.0 }
            .apply(&mut s));
    }

    #[test]
    fn uncapped_sites_accept_everything() {
        let mut s = CatalogState::default();
        DataEvent::Register { id: DatasetId(1), size: u64::MAX }.apply(&mut s);
        assert!(DataEvent::AddReplica { id: DatasetId(1), site: SiteId(3), storage_cost: 0.0 }
            .apply(&mut s));
        assert_eq!(s.capacity_left(SiteId(3)), None);
    }

    #[test]
    fn state_round_trips_through_json() {
        let mut s = CatalogState::default();
        DataEvent::SetCapacity { site: SiteId(2), bytes: 1 << 30 }.apply(&mut s);
        DataEvent::Register { id: DatasetId(7), size: 4096 }.apply(&mut s);
        DataEvent::AddReplica { id: DatasetId(7), site: SiteId(2), storage_cost: 0.5 }
            .apply(&mut s);
        let json = serde_json::to_string(&s).unwrap();
        let back: CatalogState = serde_json::from_str(&json).unwrap();
        assert_eq!(back, s);
    }

    #[test]
    fn events_round_trip_through_json() {
        let events = [
            DataEvent::SetCapacity { site: SiteId(1), bytes: 10 },
            DataEvent::Register { id: DatasetId(3), size: 20 },
            DataEvent::AddReplica { id: DatasetId(3), site: SiteId(1), storage_cost: 2.0 },
            DataEvent::Invalidate { id: DatasetId(3), site: SiteId(1) },
        ];
        for e in &events {
            let json = serde_json::to_string(e).unwrap();
            let back: DataEvent = serde_json::from_str(&json).unwrap();
            assert_eq!(&back, e);
        }
    }
}
