//! The immutable snapshot of the catalog that placement consumes.
//!
//! The scheduler's order-independence contract (a task's decision is a
//! pure function of the candidate site, the host-selection table and
//! its parents' chosen sites) extends to datasets only if the dataset
//! term is a pure function of the candidate site and a *static* catalog
//! view. [`DataView`] is that static input: taken once per scheduling
//! run, never mutated mid-walk.

use serde::{Deserialize, JsonReader, JsonWriter, Serialize};
use std::collections::BTreeMap;
use std::io::Write;
use vdce_afg::DatasetId;
use vdce_net::SiteId;

/// One dataset as placement sees it.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct DatasetSpec {
    /// Size in bytes of a transfer from any replica.
    pub size: u64,
    /// Sites holding a live replica, ascending and deduplicated. The
    /// scheduler charges `min` over these; an empty list makes every
    /// reader placement infeasible.
    pub sites: Vec<SiteId>,
    /// The home (first-registered live) replica's site, if any — the
    /// single source the parent-site-only baseline is allowed to use.
    pub home: Option<SiteId>,
}

/// Immutable catalog snapshot: `DatasetId → DatasetSpec`, plus the
/// bytes still free at capacity-capped sites.
///
/// The datasets are one vector sorted by id, filled once per view and
/// searched by bisection: a view is built per scheduling run and read,
/// never edited. Serialises as `{"datasets": {"<id>": spec, ..}, "free":
/// {"<site>": bytes, ..}}` in id order, `free` left out when empty.
#[derive(Debug, Clone, PartialEq, Default)]
pub struct DataView {
    /// Ascending by id, one entry per id.
    datasets: Vec<(DatasetId, DatasetSpec)>,
    /// Bytes still free per capacity-capped site. Sites absent here are
    /// uncapped; admission-time dataset-output storage checks read this.
    free: BTreeMap<SiteId, u64>,
}

impl DataView {
    /// View over the given specs (catalog-internal constructor; tests
    /// and workload generators may also build views directly). Every
    /// site starts uncapped; the catalog records free space when taking a
    /// view.
    pub fn from_specs(datasets: BTreeMap<DatasetId, DatasetSpec>) -> Self {
        Self::from_sorted(datasets.into_iter().collect())
    }

    /// View over `datasets`, which must be ascending by id without
    /// repeats; every site starts uncapped.
    pub(crate) fn from_sorted(datasets: Vec<(DatasetId, DatasetSpec)>) -> Self {
        debug_assert!(datasets.windows(2).all(|w| w[0].0 < w[1].0), "ids not ascending");
        DataView { datasets, free: BTreeMap::new() }
    }

    /// Record that `site` has `bytes` of storage left. The catalog
    /// fills this from its capacity accounting when taking a view.
    pub(crate) fn set_free(&mut self, site: SiteId, bytes: u64) {
        self.free.insert(site, bytes);
    }

    /// Bytes still free at `site`, or `None` when the site is uncapped.
    pub fn free_at(&self, site: SiteId) -> Option<u64> {
        self.free.get(&site).copied()
    }

    /// The spec for `id`, if the dataset is registered.
    pub fn get(&self, id: DatasetId) -> Option<&DatasetSpec> {
        let i = self.datasets.binary_search_by_key(&id, |(d, _)| *d).ok()?;
        Some(&self.datasets[i].1)
    }

    /// Degrade every dataset to its home replica only — the paper's
    /// parent-site-only data model, used as the ablation baseline.
    pub fn primary_only(&self) -> DataView {
        let datasets = self
            .datasets
            .iter()
            .map(|(id, spec)| {
                let sites = spec.home.map(|h| vec![h]).unwrap_or_default();
                (*id, DatasetSpec { size: spec.size, sites, home: spec.home })
            })
            .collect();
        DataView { datasets, free: self.free.clone() }
    }
}

impl Serialize for DataView {
    fn write_json<W: Write>(&self, w: &mut JsonWriter<W>) {
        let mut obj = w.begin_object();
        w.key(&mut obj, br#""datasets":"#);
        let mut map = w.begin_object();
        for (id, spec) in &self.datasets {
            w.map_key(&mut map, id);
            spec.write_json(w);
        }
        w.end_object(map);
        if !self.free.is_empty() {
            w.key(&mut obj, br#""free":"#);
            self.free.write_json(w);
        }
        w.end_object(obj);
    }
}

/// Reads what the writer writes, the way a derived reader would: unknown
/// keys are skipped, the first of a repeated field wins, `free` defaults
/// to empty, and a repeated dataset id keeps its last spec.
impl Deserialize for DataView {
    fn read_json(r: &mut JsonReader<'_>) -> Result<Self, serde::Error> {
        let mut datasets: Option<BTreeMap<DatasetId, DatasetSpec>> = None;
        let mut free = None;
        let mut obj = r.begin_object("object for DataView")?;
        while let Some(key) = r.next_key(&mut obj)? {
            match &*key {
                "datasets" if datasets.is_none() => {
                    datasets = Some(r.field("DataView", "datasets")?);
                }
                "free" if free.is_none() => free = Some(r.field("DataView", "free")?),
                _ => r.skip_value()?,
            }
        }
        let datasets = datasets.ok_or_else(|| serde::__missing_field("datasets", "DataView"))?;
        Ok(DataView { free: free.unwrap_or_default(), ..DataView::from_specs(datasets) })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn spec(size: u64, sites: &[u16], home: Option<u16>) -> DatasetSpec {
        DatasetSpec {
            size,
            sites: sites.iter().map(|&s| SiteId(s)).collect(),
            home: home.map(SiteId),
        }
    }

    #[test]
    fn primary_only_truncates_to_home() {
        let mut m = BTreeMap::new();
        m.insert(DatasetId(1), spec(10, &[0, 1, 2], Some(1)));
        m.insert(DatasetId(2), spec(20, &[], None));
        let view = DataView::from_specs(m);
        let primary = view.primary_only();
        assert_eq!(primary.get(DatasetId(1)).unwrap().sites, vec![SiteId(1)]);
        assert!(primary.get(DatasetId(2)).unwrap().sites.is_empty());
        assert_eq!(primary.get(DatasetId(1)).unwrap().size, 10, "size survives");
    }

    #[test]
    fn view_round_trips_through_json() {
        let mut m = BTreeMap::new();
        m.insert(DatasetId(3), spec(1 << 20, &[0, 4], Some(4)));
        let mut view = DataView::from_specs(m);
        view.set_free(SiteId(0), 1 << 30);
        let json = serde_json::to_string(&view).unwrap();
        let back: DataView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
        assert_eq!(back.free_at(SiteId(0)), Some(1 << 30));
        assert_eq!(back.free_at(SiteId(1)), None, "unrecorded sites are uncapped");
    }

    /// The view travels inside journaled and hashed state, so its JSON
    /// text is pinned, not just its round trip: an object keyed by
    /// dataset id in id order, then the capped sites' free bytes.
    #[test]
    fn view_json_text_is_pinned() {
        let mut m = BTreeMap::new();
        m.insert(DatasetId(7), spec(4096, &[1, 3], Some(3)));
        m.insert(DatasetId(2), spec(1 << 20, &[0], None));
        let mut view = DataView::from_specs(m);
        view.set_free(SiteId(1), 500);
        let json = serde_json::to_string(&view).unwrap();
        assert_eq!(
            json,
            concat!(
                r#"{"datasets":{"2":{"size":1048576,"sites":[0],"home":null},"#,
                r#""7":{"size":4096,"sites":[1,3],"home":3}},"free":{"1":500}}"#
            )
        );
        let back: DataView = serde_json::from_str(&json).unwrap();
        assert_eq!(back, view);
    }

    #[test]
    fn uncapped_view_json_has_no_free_key_and_primary_only_keeps_free() {
        let mut m = BTreeMap::new();
        m.insert(DatasetId(1), spec(8, &[0, 1], Some(1)));
        let view = DataView::from_specs(m);
        let json = serde_json::to_string(&view).unwrap();
        assert!(!json.contains("free"), "empty free map must not serialise: {json}");
        let mut capped = view.clone();
        capped.set_free(SiteId(2), 42);
        assert_eq!(capped.primary_only().free_at(SiteId(2)), Some(42));
    }
}
