//! Resolution of dataset-typed task inputs against a [`DataView`].
//!
//! The walk and the incremental scheduler both need, per task, the list
//! of catalog datasets it reads — each with its size and its live
//! replica sites. Resolving that once up front (a) surfaces typed
//! errors ([`SchedError::UnknownDataset`] /
//! [`SchedError::NoFeasibleReplica`]) before any placement happens and
//! (b) freezes the catalog view for the whole run, which is what keeps
//! the per-task decision a pure function of the candidate site (the
//! order-independence contract of `crate::incremental`).

use crate::site_scheduler::SchedError;
use vdce_afg::{Afg, DatasetId, TaskId};
use vdce_data::DataView;
use vdce_net::SiteId;

/// One resolved dataset input of a task, borrowing its replica list from
/// the [`DataView`] it was resolved against.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct DsInput<'a> {
    /// The dataset.
    pub id: DatasetId,
    /// Transfer size in bytes (from the catalog, not the property sheet).
    pub size: u64,
    /// Live replica sites, ascending and non-empty.
    pub sites: &'a [SiteId],
}

/// Per-task dataset inputs in CSR form (input-port order within a task).
#[derive(Debug, Clone, Default, PartialEq)]
pub(crate) struct DatasetInputs<'a> {
    offsets: Vec<u32>,
    items: Vec<DsInput<'a>>,
}

impl<'a> DatasetInputs<'a> {
    /// Resolve every `IoSpec::Dataset` input of `afg` against `data`.
    /// `None` resolves like an empty view: any dataset reference is an
    /// [`SchedError::UnknownDataset`] — a request without a catalog
    /// cannot silently schedule dataset reads for free — so a
    /// schedule that keeps its inputs resolves against `None` and holds
    /// `DatasetInputs<'static>`.
    pub(crate) fn resolve(afg: &Afg, data: Option<&'a DataView>) -> Result<Self, SchedError> {
        let n = afg.task_count();
        let mut offsets = Vec::with_capacity(n + 1);
        let mut items = Vec::new();
        offsets.push(0u32);
        for t in afg.task_ids() {
            for spec in &afg.task(t).props.inputs {
                let Some(id) = spec.dataset_id() else { continue };
                let Some(spec) = data.and_then(|view| view.get(id)) else {
                    return Err(SchedError::UnknownDataset { task: t, dataset: id });
                };
                if spec.sites.is_empty() {
                    return Err(SchedError::NoFeasibleReplica { task: t, dataset: id });
                }
                items.push(DsInput { id, size: spec.size, sites: &spec.sites });
            }
            offsets.push(items.len() as u32);
        }
        Ok(DatasetInputs { offsets, items })
    }

    /// The resolved dataset inputs of `task`.
    pub(crate) fn for_task(&self, task: TaskId) -> &[DsInput<'a>] {
        let i = task.index();
        &self.items[self.offsets[i] as usize..self.offsets[i + 1] as usize]
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;
    use vdce_afg::{AfgBuilder, IoSpec, TaskLibrary};
    use vdce_data::DatasetSpec;

    fn view(entries: &[(u64, u64, &[u16])]) -> DataView {
        let mut m = BTreeMap::new();
        for &(id, size, sites) in entries {
            m.insert(
                DatasetId(id),
                DatasetSpec {
                    size,
                    sites: sites.iter().map(|&s| SiteId(s)).collect(),
                    home: sites.first().map(|&s| SiteId(s)),
                },
            );
        }
        DataView::from_specs(m)
    }

    fn afg_reading(id: u64) -> Afg {
        let lib = TaskLibrary::standard();
        let mut b = AfgBuilder::new("d", &lib);
        let m = b.add_task("Map", "m", 100).unwrap();
        let k = b.add_task("Sink", "k", 100).unwrap();
        b.set_input(m, 0, IoSpec::dataset(DatasetId(id))).unwrap();
        b.connect(m, 0, k, 0).unwrap();
        b.build().unwrap()
    }

    #[test]
    fn resolves_in_port_order_with_catalog_sizes() {
        let afg = afg_reading(1);
        let v = view(&[(1, 4096, &[2, 0])]);
        let dsi = DatasetInputs::resolve(&afg, Some(&v)).unwrap();
        let ds = dsi.for_task(TaskId(0));
        assert_eq!(ds.len(), 1);
        assert_eq!(ds[0].id, DatasetId(1));
        assert_eq!(ds[0].size, 4096);
        assert_eq!(ds[0].sites, [SiteId(2), SiteId(0)]);
        assert!(dsi.for_task(TaskId(1)).is_empty());
    }

    #[test]
    fn unknown_and_replica_free_datasets_are_typed_errors() {
        let afg = afg_reading(9);
        assert_eq!(
            DatasetInputs::resolve(&afg, None).unwrap_err(),
            SchedError::UnknownDataset { task: TaskId(0), dataset: DatasetId(9) }
        );
        let v = view(&[(9, 10, &[])]);
        assert_eq!(
            DatasetInputs::resolve(&afg, Some(&v)).unwrap_err(),
            SchedError::NoFeasibleReplica { task: TaskId(0), dataset: DatasetId(9) }
        );
    }
}
