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
//!   one [`TermTable`] per site in the site's host order —
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
//! - one site load state (stream): the service keeps a [`TermTable`]
//!   beside each site's view, filled by the admissions selecting under it
//!   and dropped at the site's next load sample; a queued submission
//!   holds the tables it was
//!   admitted under, so it deliberately stays priced at its
//!   admission-time loads until it is dispatched;
//! - one replay (sim): re-selections late in a fault replay see loads
//!   from the first lookup — a known staleness, recorded in ROADMAP
//!   item 2, not a property anything relies on.
//!
//! Host-side terms have one layout, [`TermTable`], in both scopes that
//! keep them: the memo holds one per site, realigned by host name when
//! the site's host list changes, and the stream service one per site
//! view. [`PredictCache`] is a single-threaded value: its `&self` methods
//! borrow a `RefCell`, and no host-selection call re-enters a memo.

use crate::model::{HostTerm, PredictError, Predictor};
use std::cell::{Cell, RefCell, RefMut};
use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};
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
    inner: RefCell<Inner>,
    hits: Cell<u64>,
    misses: Cell<u64>,
}

#[derive(Debug, Default)]
struct Inner {
    task_ids: FxMap<String, u32>,
    host_ids: FxMap<String, u32>,
    map: FxMap<(u32, u64, u32), Result<f64, PredictError>>,
    /// Every host name a term table is keyed on, back to back.
    names: String,
    /// Per site, indexed by `SiteId::index()`. Keying terms on the site
    /// as well as the host keeps two sites' terms apart even where their
    /// host names meet.
    sites: Vec<SiteTable>,
}

/// One site's hosts and terms in a memo: the byte range in
/// `Inner::names` of each host the site has shown — the hosts of the last
/// view that did not lead this list, in view order, then any host that
/// view lacked, in their earlier order — and a row per interned task of
/// a slot per host in that order.
type SiteTable = (Box<[(u32, u32)]>, TermTable);

/// Does `view` list the first of `hosts`, ranges into `names`, position
/// for position?
fn leads_with<'h>(
    names: &str,
    hosts: &[(u32, u32)],
    view: impl ExactSizeIterator<Item = &'h ResourceRecord>,
) -> bool {
    view.len() <= hosts.len()
        && view
            .zip(hosts)
            .all(|(h, &(start, end))| names[start as usize..end as usize] == *h.host_name)
}

/// Reorder a site's `hosts` and `table`, terms and all, so that `view`
/// leads them; names the site has not shown before are appended to
/// `names`.
fn realign<'h>(
    names: &mut String,
    (hosts, table): &mut SiteTable,
    mut view: impl Iterator<Item = &'h ResourceRecord> + Clone,
) {
    if hosts.is_empty() {
        // The site's first view: no terms to carry over.
        *hosts = view.map(|h| append(names, &h.host_name)).collect();
        *table = TermTable::new(hosts.len());
        return;
    }
    let mut known: FxMap<&str, usize> = hosts
        .iter()
        .enumerate()
        .map(|(i, &(start, end))| (&names[start as usize..end as usize], i))
        .collect();
    // Old position of each new one; `None` for a name new to the site.
    let mut order: Vec<Option<usize>> =
        view.clone().map(|h| known.remove(h.host_name.as_str())).collect();
    let mut rest: Vec<usize> = known.into_values().collect();
    rest.sort_unstable();
    order.extend(rest.into_iter().map(Some));
    // The view leads `order`, and only view positions are new.
    let realigned: Box<[(u32, u32)]> = (order.iter())
        .map(|old| match (*old, view.next()) {
            (Some(i), _) => hosts[i],
            (None, host) => append(names, &host.expect("a new name is a view position").host_name),
        })
        .collect();
    *hosts = realigned;
    *table = table.remap(&order);
}

/// Append `name` to the arena `names`; its byte range there.
fn append(names: &mut String, name: &str) -> (u32, u32) {
    let offset = |at: usize| u32::try_from(at).expect("host names under 4 GiB");
    let start = offset(names.len());
    names.push_str(name);
    (start, offset(names.len()))
}

/// One site's term table in a memo, aligned with that site's view of its
/// hosts and borrowed for one host-selection call. Made by
/// [`PredictCache::site_terms`]; each lookup counts into the memo's hits
/// or misses.
pub struct SiteTerms<'a> {
    cache: &'a PredictCache,
    task_ids: RefMut<'a, FxMap<String, u32>>,
    table: RefMut<'a, TermTable>,
    predictor: &'a Predictor,
    tasks: &'a TaskPerfDb,
}

impl SiteTerms<'_> {
    /// The row of `task`, a library task the task-performance database
    /// knows, with the task.
    pub fn row<'t>(&mut self, task: &'t str) -> (usize, &'t str) {
        let id = intern(&mut self.task_ids, task) as usize;
        let table = &mut *self.table;
        if table.rows.len() < (id + 1) * table.hosts {
            // A site's first row makes room for every task interned so
            // far, which every other site of a shared memo already knows.
            if table.rows.capacity() == 0 {
                table.rows.reserve_exact(self.task_ids.len() * table.hosts);
            }
            table.rows.resize((id + 1) * table.hosts, None);
        }
        (id, task)
    }

    /// The term of `row`'s task on `host`, the view's host at position
    /// `pos`: the one this memo gave that pair first, else
    /// `Predictor::host_term` of the host as the view shows it, kept from
    /// now on.
    pub fn term(&mut self, row: (usize, &str), pos: usize, host: &ResourceRecord) -> HostTerm {
        let PredictCache { hits, misses, .. } = self.cache;
        if let Some(term) = self.table.get(row.0, pos) {
            hits.set(hits.get() + 1);
            return term;
        }
        misses.set(misses.get() + 1);
        self.table.term(self.predictor, self.tasks, row, pos, host)
    }
}

/// Host-side terms over one list of hosts: a row per library task, a
/// slot per host, each term `Predictor::host_term` of the host as first
/// shown, filled on first use. The owner numbers the rows (one numbering
/// for every table it keeps), so a table holds no names, and positions
/// are the owner's host order. The stream service keeps one per site
/// view and shares it by `Arc`; a [`PredictCache`] keeps one per site.
#[derive(Debug, Clone, Default)]
pub struct TermTable {
    hosts: usize,
    /// `rows[row * hosts + pos]`, grown to a row when it is first filled.
    rows: Vec<Option<HostTerm>>,
}

impl TermTable {
    /// An empty table over a view of `hosts` hosts.
    pub fn new(hosts: usize) -> Self {
        TermTable { hosts, rows: Vec::new() }
    }

    /// The term in `row` of the host at `pos`, if filled.
    pub fn get(&self, row: usize, pos: usize) -> Option<HostTerm> {
        self.rows.get(row * self.hosts + pos).copied().flatten()
    }

    /// The term in `row`, the row of library task `task`, of `host`, the
    /// view's host at `pos`: the filled one, else `Predictor::host_term`
    /// of `host` as the view shows it, kept from now on.
    pub fn term(
        &mut self,
        predictor: &Predictor,
        tasks: &TaskPerfDb,
        (row, task): (usize, &str),
        pos: usize,
        host: &ResourceRecord,
    ) -> HostTerm {
        let at = row * self.hosts + pos;
        if self.rows.len() <= at {
            self.rows.resize((row + 1) * self.hosts, None);
        }
        *self.rows[at].get_or_insert_with(|| predictor.host_term(tasks, task, host))
    }

    /// Number of terms filled.
    pub fn len(&self) -> usize {
        self.rows.iter().filter(|t| t.is_some()).count()
    }

    /// Is no term filled?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// The table over `order.len()` hosts whose host at `pos` is this
    /// table's host at `order[pos]`, or a host new to it where that is
    /// `None`; every row keeps its terms.
    fn remap(&self, order: &[Option<usize>]) -> TermTable {
        let tasks = self.rows.len().checked_div(self.hosts).unwrap_or(0);
        let mut rows = Vec::with_capacity(tasks * order.len());
        for t in 0..tasks {
            let row = &self.rows[t * self.hosts..][..self.hosts];
            rows.extend(order.iter().map(|old| old.and_then(|i| row[i])));
        }
        TermTable { hosts: order.len(), rows }
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
        let inner = &mut *self.inner.borrow_mut();
        if let (Some(&t), Some(&h)) =
            (inner.task_ids.get(task), inner.host_ids.get(host.host_name.as_str()))
        {
            if let Some(cached) = inner.map.get(&(t, problem_size, h)) {
                self.hits.set(self.hits.get() + 1);
                return cached.clone();
            }
        }
        self.misses.set(self.misses.get() + 1);
        let computed = predictor.predict(tasks, task, problem_size, host);
        let t = intern(&mut inner.task_ids, task);
        let h = intern(&mut inner.host_ids, &host.host_name);
        inner.map.insert((t, problem_size, h), computed.clone());
        computed
    }

    /// Batched [`PredictCache::predict`] over every host a ranking will
    /// consider: one pass resolves all hits, the misses run through the
    /// flat [`Predictor::predict_batch`] kernel as one slice-in/slice-out
    /// batch, then one pass stores them. The cache is probed once per
    /// `(task, size)` batch — the per-host work inside the first pass is
    /// a single small-key map probe. Results come back in `hosts` order
    /// and are element-wise identical to per-host `predict` calls — the
    /// batching only amortises the task-name probes and the task-side
    /// model gather.
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
        let inner = &mut *self.inner.borrow_mut();
        let mut out: Vec<Result<f64, PredictError>> = Vec::with_capacity(hosts.len());
        let mut miss_idx: Vec<u32> = Vec::new();
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
        self.hits.set(self.hits.get() + (hosts.len() - miss_idx.len()) as u64);
        if !miss_idx.is_empty() {
            self.misses.set(self.misses.get() + miss_idx.len() as u64);
            // Evaluate as one flat batch, then store.
            let miss_hosts: Vec<&ResourceRecord> =
                miss_idx.iter().map(|&i| hosts[i as usize]).collect();
            let mut computed = Vec::new();
            predictor.predict_batch(tasks, task, problem_size, &miss_hosts, &mut computed);
            let t = intern(&mut inner.task_ids, task);
            for (&i, value) in miss_idx.iter().zip(computed) {
                let hid = intern(&mut inner.host_ids, &hosts[i as usize].host_name);
                inner.map.insert((t, problem_size, hid), value.clone());
                out[i as usize] = value;
            }
        }
        out
    }

    /// The host-side terms of `site` for one host-selection call over
    /// `hosts`, the site's view of its hosts in view order, walked here and
    /// not kept: a lookup names its host. When `hosts` lists the hosts the
    /// memo last saw at `site`, position for position — the normal case,
    /// as captures change loads and statuses, not host sets — a term is
    /// one vector index; otherwise the site's table is first realigned to
    /// `hosts` by name. Borrows the memo until it is dropped.
    pub fn site_terms<'a, 'h>(
        &'a self,
        predictor: &'a Predictor,
        tasks: &'a TaskPerfDb,
        site: SiteId,
        hosts: impl ExactSizeIterator<Item = &'h ResourceRecord> + Clone,
    ) -> SiteTerms<'a> {
        let mut inner = self.inner.borrow_mut();
        let Inner { names, sites, .. } = &mut *inner;
        if sites.len() <= site.index() {
            sites.resize_with(site.index() + 1, Default::default);
        }
        let entry = &mut sites[site.index()];
        if !leads_with(names, &entry.0, hosts.clone()) {
            realign(names, entry, hosts);
        }
        let (task_ids, table) =
            RefMut::map_split(inner, |i| (&mut i.task_ids, &mut i.sites[site.index()].1));
        SiteTerms { cache: self, task_ids, table, predictor, tasks }
    }

    /// Number of distinct entries memoised: `(task, size, host)`
    /// predictions plus `(task, host)` terms.
    pub fn len(&self) -> usize {
        let inner = self.inner.borrow();
        inner.map.len() + inner.sites.iter().map(|(_, table)| table.len()).sum::<usize>()
    }

    /// Has nothing been evaluated yet?
    pub fn is_empty(&self) -> bool {
        self.len() == 0
    }

    /// Memo hits so far (for benchmark reporting).
    pub fn hits(&self) -> u64 {
        self.hits.get()
    }

    /// Memo misses (= model evaluations) so far.
    pub fn misses(&self) -> u64 {
        self.misses.get()
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
        let mut terms = cache.site_terms(p, db, SiteId(0), hosts.iter().copied());
        let row = terms.row(task);
        hosts.iter().enumerate().map(|(pos, h)| terms.term(row, pos, h)).collect()
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

    /// Terms are kept per site: a host name two sites both show is priced
    /// at each as that site shows it, and stays pinned there.
    #[test]
    fn two_sites_keep_their_own_terms_for_one_host_name() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let cache = PredictCache::new();
        let (slow, fast) = (host("h", 1.0), host("h", 4.0));
        let term = |site, h: &ResourceRecord| {
            let mut terms = cache.site_terms(&p, &db, SiteId(site), [h].into_iter());
            let row = terms.row("Sort");
            terms.term(row, 0, h)
        };
        assert_eq!(term(0, &slow), p.host_term(&db, "Sort", &slow));
        assert_eq!(term(1, &fast), p.host_term(&db, "Sort", &fast));
        assert_ne!(p.host_term(&db, "Sort", &slow), p.host_term(&db, "Sort", &fast));
        assert_eq!(term(0, &fast), p.host_term(&db, "Sort", &slow));
        assert_eq!((cache.len(), cache.hits(), cache.misses()), (2, 1, 2));
    }

    /// A term table fills a slot once, at the host as first shown, and
    /// grows only to the rows its owner numbers.
    #[test]
    fn a_term_table_fills_each_slot_once() {
        let db = TaskPerfDb::standard();
        let p = Predictor::default();
        let (mut a, b) = (host("a", 1.0), host("b", 2.0));
        let mut table = TermTable::new(2);
        assert_eq!((table.get(1, 1), table.len()), (None, 0));
        let sort = table.term(&p, &db, (1, "Sort"), 1, &b);
        assert_eq!(sort, p.host_term(&db, "Sort", &b));
        assert_eq!((table.get(1, 1), table.get(1, 0), table.get(0, 1)), (Some(sort), None, None));
        let map = table.term(&p, &db, (0, "Map"), 0, &a);
        a.workload = 3.0;
        assert_eq!(table.term(&p, &db, (0, "Map"), 0, &a), map);
        assert_eq!(table.len(), 2);
    }
}
