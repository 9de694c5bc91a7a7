//! Memoised `Predict(task, R)` evaluations.
//!
//! A scheduler evaluates the same prediction many times: re-selection
//! after a failure re-ranks hosts it ranked before, node-count selection
//! re-evaluates prefixes of the ranking, and the completion-time
//! baselines (min-min/max-min) recompute their option sets every round.
//! [`PredictCache`] memoises at two granularities:
//!
//! - whole predictions, keyed on `(library task, problem size, host)` —
//!   [`PredictCache::predict`] / `PredictCache::predict_many`, used by
//!   re-selection and the baselines, where the same triple recurs;
//! - host-side terms, keyed on `(site, library task, host)` and held as
//!   one dense row per site and library task in the site's host order —
//!   [`PredictCache::site_terms`], used by class-batched host selection,
//!   where problem sizes are continuous and a triple never recurs but a
//!   term prices every size of a task on its host.
//!
//! The contract: **a memo pins what it has seen for as long as it
//! lives.** Nothing is evicted or invalidated, so a host whose load or
//! measured rate changes after its first lookup keeps its first price.
//! The memo's owner therefore chooses the scope that pinning is meant to
//! have:
//!
//! - one scheduling run (batch): inputs are a frozen `SiteView` snapshot,
//!   so the memo never changes *what* is returned, only how often the
//!   model is evaluated;
//! - one pending submission (stream): a queued submission deliberately
//!   stays priced at its admission-time loads until it is dispatched;
//! - one replay (sim): re-selections late in a fault replay see loads
//!   from the first lookup — a known staleness, recorded in ROADMAP
//!   item 1, not a property anything relies on.
//!
//! [`PredictCache`] is `Sync` (interior `RwLock`) so the per-site
//! fan-out can share one memo. Two workers racing on the same key both
//! compute the same value (the model is deterministic).

use crate::model::{HostTerm, PredictError, Predictor};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{RwLock, RwLockWriteGuard};
use vdce_net::topology::SiteId;
use vdce_repository::resources::ResourceRecord;
use vdce_repository::TaskPerfDb;

/// Multiply-rotate hasher (the rustc "Fx" construction). The memo maps
/// sit on the scheduler's innermost loop, where SipHash's per-call fixed
/// cost (~40 ns) exceeds the whole model evaluation being memoised;
/// short host/task names and 16-byte triple keys hash in a few cycles
/// here. Not DoS-resistant — fine for keys the scheduler itself makes.
#[derive(Debug, Default)]
pub struct FxHasher {
    hash: u64,
}

impl FxHasher {
    #[inline]
    fn add(&mut self, word: u64) {
        self.hash = (self.hash.rotate_left(5) ^ word).wrapping_mul(0x51_7c_c1_b7_27_22_0a_95);
    }
}

impl Hasher for FxHasher {
    #[inline]
    fn write(&mut self, bytes: &[u8]) {
        let mut chunks = bytes.chunks_exact(8);
        for c in &mut chunks {
            self.add(u64::from_le_bytes(c.try_into().expect("8-byte chunk")));
        }
        let rest = chunks.remainder();
        if !rest.is_empty() {
            let mut tail = [0u8; 8];
            tail[..rest.len()].copy_from_slice(rest);
            self.add(u64::from_le_bytes(tail) ^ rest.len() as u64);
        }
    }
    #[inline]
    fn write_u8(&mut self, v: u8) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u32(&mut self, v: u32) {
        self.add(v as u64);
    }
    #[inline]
    fn write_u64(&mut self, v: u64) {
        self.add(v);
    }
    #[inline]
    fn write_usize(&mut self, v: usize) {
        self.add(v as u64);
    }
    #[inline]
    fn finish(&self) -> u64 {
        self.hash
    }
}

/// A `HashMap` hashing with [`FxHasher`]; create one with `FxMap::default()`.
pub type FxMap<K, V> = HashMap<K, V, BuildHasherDefault<FxHasher>>;

/// Memo table over [`Predictor::predict`] and `Predictor::host_term`;
/// see the module docs for the two key spaces and the scope contract.
///
/// Task names, and the host names of whole predictions, are **interned**
/// to small integer ids so the hot lookup path allocates nothing: a
/// prediction hit costs two borrowed-str map probes plus one small-key
/// probe, a term hit one vector index.
#[derive(Debug, Default)]
pub struct PredictCache {
    inner: RwLock<Inner>,
    hits: AtomicU64,
    misses: AtomicU64,
}

#[derive(Debug, Default)]
struct Inner {
    task_ids: FxMap<String, u32>,
    host_ids: FxMap<String, u32>,
    map: FxMap<(u32, u64, u32), Result<f64, PredictError>>,
    /// Every host name a term row is keyed on, back to back.
    names: String,
    /// Term rows per site, indexed by `SiteId::index()`. Keying terms on
    /// the site as well as the host changes nothing a caller sees because
    /// host names are unique across a federation ([`Topology::add_site`]
    /// and the site generators enforce this): a memo shared across sites
    /// still holds one term per `(library task, host)`.
    ///
    /// [`Topology::add_site`]: vdce_net::topology::Topology::add_site
    sites: Vec<TermSite>,
}

/// One site's host-side terms: one row per interned library task, one
/// slot per host the site has shown the memo.
#[derive(Debug, Default)]
struct TermSite {
    /// The byte range in `Inner::names` of each host the site has shown:
    /// the hosts of the last view that did not lead this list, in view
    /// order, then any host that view lacked, in their earlier order.
    hosts: Vec<(u32, u32)>,
    /// `rows[task * hosts.len() + host]`: the term of interned task `task`
    /// on host `host`, once looked up.
    rows: Vec<Option<HostTerm>>,
}

impl TermSite {
    /// Does `view` list the first of `hosts`, position for position?
    fn leads_with(&self, names: &str, view: &[&ResourceRecord]) -> bool {
        view.len() <= self.hosts.len()
            && view
                .iter()
                .zip(&self.hosts)
                .all(|(h, &(start, end))| names[start as usize..end as usize] == *h.host_name)
    }

    /// Reorder the hosts, terms and all, so that `view` leads them; names
    /// this site has not shown before are appended to `names`.
    fn realign(&mut self, names: &mut String, view: &[&ResourceRecord]) {
        if self.hosts.is_empty() {
            // The site's first view: no terms to carry over.
            self.hosts = view.iter().map(|h| append(names, &h.host_name)).collect();
            return;
        }
        let mut known: FxMap<&str, usize> = self
            .hosts
            .iter()
            .enumerate()
            .map(|(i, &(start, end))| (&names[start as usize..end as usize], i))
            .collect();
        // Old position of each new one; `None` for a name new to the site.
        let mut order: Vec<Option<usize>> =
            view.iter().map(|h| known.remove(h.host_name.as_str())).collect();
        let mut rest: Vec<usize> = known.into_values().collect();
        rest.sort_unstable();
        order.extend(rest.into_iter().map(Some));
        // Only view positions are new.
        let hosts: Vec<(u32, u32)> = order
            .iter()
            .enumerate()
            .map(|(pos, old)| match *old {
                Some(i) => self.hosts[i],
                None => append(names, &view[pos].host_name),
            })
            .collect();
        let stride = self.hosts.len();
        let tasks = self.rows.len().checked_div(stride).unwrap_or(0);
        let mut rows = Vec::with_capacity(tasks * hosts.len());
        for t in 0..tasks {
            let row = &self.rows[t * stride..][..stride];
            rows.extend(order.iter().map(|old| old.and_then(|i| row[i])));
        }
        self.hosts = hosts;
        self.rows = rows;
    }
}

/// Append `name` to the arena `names`; its byte range there.
fn append(names: &mut String, name: &str) -> (u32, u32) {
    let offset = |at: usize| u32::try_from(at).expect("host names under 4 GiB");
    let start = offset(names.len());
    names.push_str(name);
    (start, offset(names.len()))
}

/// The term rows of one site, aligned with that site's view of its hosts
/// and write-locked for as long as this lives — one host-selection call.
/// Made by [`PredictCache::site_terms`]; its lookups count into the
/// memo's hits and misses when it is dropped.
pub struct SiteTerms<'a> {
    cache: &'a PredictCache,
    inner: RwLockWriteGuard<'a, Inner>,
    predictor: &'a Predictor,
    tasks: &'a TaskPerfDb,
    hosts: &'a [&'a ResourceRecord],
    site: usize,
    hits: u64,
    misses: u64,
}

/// A library task's row in a [`SiteTerms`], from [`SiteTerms::row`].
#[derive(Debug, Clone, Copy)]
pub struct TermRow<'t> {
    task: &'t str,
    /// Index in the site's rows of the task's term on the view's first host.
    start: usize,
}

impl SiteTerms<'_> {
    /// The row of `task`, a library task the task-performance database
    /// knows.
    pub fn row<'t>(&mut self, task: &'t str) -> TermRow<'t> {
        let inner = &mut *self.inner;
        let id = intern(&mut inner.task_ids, task) as usize;
        let tasks = inner.task_ids.len();
        let site = &mut inner.sites[self.site];
        let stride = site.hosts.len();
        if site.rows.len() < (id + 1) * stride {
            // A site's first row makes room for every task interned so
            // far, which every other site of a shared memo already knows.
            if site.rows.capacity() == 0 {
                site.rows.reserve_exact(tasks * stride);
            }
            site.rows.resize((id + 1) * stride, None);
        }
        TermRow { task, start: id * stride }
    }

    /// The term of `row`'s task on the view's host at position `pos`: the
    /// one this memo gave that pair first, else `Predictor::host_term` of
    /// the host as the view shows it, kept from now on.
    pub fn term(&mut self, row: TermRow<'_>, pos: usize) -> HostTerm {
        let slot = &mut self.inner.sites[self.site].rows[row.start + pos];
        if let Some(term) = *slot {
            self.hits += 1;
            return term;
        }
        self.misses += 1;
        *slot.insert(self.predictor.host_term(self.tasks, row.task, self.hosts[pos]))
    }
}

impl Drop for SiteTerms<'_> {
    fn drop(&mut self) {
        self.cache.hits.fetch_add(self.hits, Ordering::Relaxed);
        self.cache.misses.fetch_add(self.misses, Ordering::Relaxed);
    }
}

fn intern(ids: &mut FxMap<String, u32>, name: &str) -> u32 {
    if let Some(&id) = ids.get(name) {
        return id;
    }
    let id = ids.len() as u32;
    ids.insert(name.to_string(), id);
    id
}

impl PredictCache {
    /// An empty memo.
    pub fn new() -> Self {
        PredictCache::default()
    }

    /// `Predict(task, R)` through the memo table. Errors are cached too:
    /// an infeasible `(task, host)` pair stays infeasible for the whole
    /// run.
    pub fn predict(
        &self,
        predictor: &Predictor,
        tasks: &TaskPerfDb,
        task: &str,
        problem_size: u64,
        host: &ResourceRecord,
    ) -> Result<f64, PredictError> {
        {
            let inner = self.inner.read().unwrap();
            if let (Some(&t), Some(&h)) =
                (inner.task_ids.get(task), inner.host_ids.get(host.host_name.as_str()))
            {
                if let Some(cached) = inner.map.get(&(t, problem_size, h)) {
                    self.hits.fetch_add(1, Ordering::Relaxed);
                    return cached.clone();
                }
            }
        }
        self.misses.fetch_add(1, Ordering::Relaxed);
        let computed = predictor.predict(tasks, task, problem_size, host);
        let mut guard = self.inner.write().unwrap();
        let t = intern(&mut guard.task_ids, task);
        let h = intern(&mut guard.host_ids, &host.host_name);
        guard.map.insert((t, problem_size, h), computed.clone());
        computed
    }

    /// Batched [`PredictCache::predict`] over every host a ranking will
    /// consider: one read-lock pass resolves all hits, the misses run
    /// through the flat [`Predictor::predict_batch`] kernel as one
    /// slice-in/slice-out batch, then one write-lock pass stores them.
    /// The cache is probed once per `(task, size)` batch — the per-host
    /// work inside the read pass is a single small-key map probe.
    /// Results come back in `hosts` order and are element-wise identical
    /// to per-host `predict` calls — the batching only amortises the
    /// locks, the task-name probes, and the task-side model gather.
    pub(crate) fn predict_many(
        &self,
        predictor: &Predictor,
        tasks: &TaskPerfDb,
        task: &str,
        problem_size: u64,
        hosts: &[&ResourceRecord],
    ) -> Vec<Result<f64, PredictError>> {
        // Placeholder for not-yet-filled slots; `String::new()` does not
        // allocate, so misses cost no placeholder churn.
        let pending = || Err(PredictError::UnknownTask(String::new()));
        let mut out: Vec<Result<f64, PredictError>> = Vec::with_capacity(hosts.len());
        let mut miss_idx: Vec<u32> = Vec::new();
        {
            let inner = self.inner.read().unwrap();
            if let Some(&t) = inner.task_ids.get(task) {
                for (i, h) in hosts.iter().enumerate() {
                    let cached = inner
                        .host_ids
                        .get(h.host_name.as_str())
                        .and_then(|&hid| inner.map.get(&(t, problem_size, hid)));
                    match cached {
                        Some(c) => out.push(c.clone()),
                        None => {
                            out.push(pending());
                            miss_idx.push(i as u32);
                        }
                    }
                }
            } else {
                out.resize_with(hosts.len(), pending);
                miss_idx.extend(0..hosts.len() as u32);
            }
        }
        self.hits.fetch_add((hosts.len() - miss_idx.len()) as u64, Ordering::Relaxed);
        if !miss_idx.is_empty() {
            self.misses.fetch_add(miss_idx.len() as u64, Ordering::Relaxed);
            // Evaluate outside the lock as one flat batch, then store
            // under one write lock.
            let miss_hosts: Vec<&ResourceRecord> =
                miss_idx.iter().map(|&i| hosts[i as usize]).collect();
            let mut computed = Vec::new();
            predictor.predict_batch(tasks, task, problem_size, &miss_hosts, &mut computed);
            let mut guard = self.inner.write().unwrap();
            let t = intern(&mut guard.task_ids, task);
            for (&i, value) in miss_idx.iter().zip(computed) {
                let hid = intern(&mut guard.host_ids, &hosts[i as usize].host_name);
                guard.map.insert((t, problem_size, hid), value.clone());
                out[i as usize] = value;
            }
        }
        out
    }

    /// The host-side terms of `site` for one host-selection call over
    /// `hosts`, the site's view of its hosts in view order. When `hosts`
    /// lists the hosts the memo last saw at `site`, position for position
    /// — the normal case, as captures change loads and statuses, not host
    /// sets — a term is one vector index; otherwise the site's rows are
    /// first realigned to `hosts` by name. Holds the memo's write lock
    /// until it is dropped.
    pub fn site_terms<'a>(
        &'a self,
        predictor: &'a Predictor,
        tasks: &'a TaskPerfDb,
        site: SiteId,
        hosts: &'a [&'a ResourceRecord],
    ) -> SiteTerms<'a> {
        let mut inner = self.inner.write().unwrap();
        let Inner { names, sites, .. } = &mut *inner;
        if sites.len() <= site.index() {
            sites.resize_with(site.index() + 1, TermSite::default);
        }
        let entry = &mut sites[site.index()];
        if !entry.leads_with(names, hosts) {
            entry.realign(names, hosts);
        }
        SiteTerms {
            cache: self,
            inner,
            predictor,
            tasks,
            hosts,
            site: site.index(),
            hits: 0,
            misses: 0,
        }
    }

    /// Number of distinct entries memoised: `(task, size, host)`
    /// predictions plus `(task, host)` terms.
    pub fn len(&self) -> usize {
        let inner = self.inner.read().unwrap();
        let terms = inner.sites.iter().flat_map(|s| &s.rows).filter(|t| t.is_some()).count();
        inner.map.len() + terms
    }

    /// Has nothing been evaluated yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memo hits so far (for benchmark reporting).
    pub fn hits(&self) -> u64 {
        self.hits.load(Ordering::Relaxed)
    }

    /// Memo misses (= model evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.load(Ordering::Relaxed)
    }

    /// Always 0: a memo never evicts (its owner bounds it by scope, see
    /// the module docs). Kept because the `vdce_perf` layer trace reads
    /// it by name.
    pub fn evictions(&self) -> u64 {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use vdce_afg::MachineType;
    use vdce_repository::resources::HostStatus;

    fn host(name: &str, speed: f64) -> ResourceRecord {
        ResourceRecord::new(name, "10.0.0.1", MachineType::LinuxPc, speed, 1, 1 << 30, "g0")
    }

    #[test]
    fn cached_value_matches_direct_prediction() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let cache = PredictCache::new();
        let h = host("h", 2.0);
        let direct = p.predict(&db, "Sort", 10_000, &h).unwrap();
        let first = cache.predict(&p, &db, "Sort", 10_000, &h).unwrap();
        let second = cache.predict(&p, &db, "Sort", 10_000, &h).unwrap();
        assert_eq!(direct.to_bits(), first.to_bits(), "cache must be bit-identical");
        assert_eq!(first.to_bits(), second.to_bits());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
        assert_eq!(cache.len(), 1);
    }

    #[test]
    fn distinct_keys_are_distinct_entries() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let cache = PredictCache::new();
        let (a, b) = (host("a", 1.0), host("b", 2.0));
        cache.predict(&p, &db, "Sort", 1000, &a).unwrap();
        cache.predict(&p, &db, "Sort", 1000, &b).unwrap();
        cache.predict(&p, &db, "Sort", 2000, &a).unwrap();
        cache.predict(&p, &db, "Map", 1000, &a).unwrap();
        assert_eq!(cache.len(), 4);
        assert_eq!(cache.hits(), 0);
    }

    #[test]
    fn errors_are_cached() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let cache = PredictCache::new();
        let mut down = host("down", 1.0);
        down.status = HostStatus::Down;
        assert!(cache.predict(&p, &db, "Sort", 1000, &down).is_err());
        assert!(cache.predict(&p, &db, "Sort", 1000, &down).is_err());
        assert_eq!(cache.misses(), 1);
        assert_eq!(cache.hits(), 1);
    }

    #[test]
    fn predict_many_matches_scalar_predict() {
        let mut db = TaskPerfDb::standard();
        db.record_execution("Sort", "h1", 5000, 2.0);
        let p = Predictor::default();
        let hosts: Vec<ResourceRecord> =
            (0..5).map(|i| host(&format!("h{i}"), 1.0 + i as f64)).collect();
        let refs: Vec<&ResourceRecord> = hosts.iter().collect();
        let cache = PredictCache::new();
        // Pre-warm a subset so the batch mixes hits and misses.
        cache.predict(&p, &db, "Sort", 5000, refs[2]).unwrap();
        let batched = cache.predict_many(&p, &db, "Sort", 5000, &refs);
        for (h, got) in refs.iter().zip(&batched) {
            let want = p.predict(&db, "Sort", 5000, h);
            assert_eq!(
                want.map(f64::to_bits),
                got.clone().map(f64::to_bits),
                "host {}",
                h.host_name
            );
        }
        // A second pass is all hits and identical.
        let again = cache.predict_many(&p, &db, "Sort", 5000, &refs);
        assert_eq!(batched, again);
    }

    /// `task`'s term on each of `hosts` through one [`SiteTerms`] of site 0.
    fn host_terms(
        cache: &PredictCache,
        p: &Predictor,
        db: &TaskPerfDb,
        task: &str,
        hosts: &[&ResourceRecord],
    ) -> Vec<HostTerm> {
        let mut terms = cache.site_terms(p, db, SiteId(0), hosts);
        let row = terms.row(task);
        (0..hosts.len()).map(|pos| terms.term(row, pos)).collect()
    }

    #[test]
    fn host_terms_pin_the_first_load_seen() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let cache = PredictCache::new();
        let (mut a, b) = (host("a", 1.0), host("b", 2.0));
        let first = host_terms(&cache, &p, &db, "Sort", &[&a, &b]);
        assert_eq!(first, vec![p.host_term(&db, "Sort", &a), p.host_term(&db, "Sort", &b)]);
        assert_eq!((cache.misses(), cache.hits(), cache.len()), (2, 0, 2));
        // A load change after the first lookup is not seen through the
        // same memo (that is the scope contract), but a fresh memo and a
        // different task on the same memo both see it.
        a.workload = 3.0;
        assert_eq!(host_terms(&cache, &p, &db, "Sort", &[&a]), first[..1]);
        assert_eq!((cache.misses(), cache.hits()), (2, 1));
        let fresh = p.host_term(&db, "Sort", &a);
        assert_eq!(fresh.load_mult, 4.0);
        assert_eq!(host_terms(&PredictCache::new(), &p, &db, "Sort", &[&a]), vec![fresh]);
        assert_eq!(host_terms(&cache, &p, &db, "Map", &[&a])[0].load_mult, 4.0);
        assert_eq!(cache.evictions(), 0);
    }

    #[test]
    fn cache_is_shareable_across_threads() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let cache = PredictCache::new();
        let hosts: Vec<ResourceRecord> = (0..4).map(|i| host(&format!("h{i}"), 1.0)).collect();
        std::thread::scope(|s| {
            for h in &hosts {
                let (cache, p, db) = (&cache, &p, &db);
                s.spawn(move || cache.predict(p, db, "Sort", 5000, h).unwrap());
            }
        });
        assert_eq!(cache.len(), 4);
    }
}
