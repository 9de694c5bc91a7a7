//! The shared region: page caches, the home directory, and the MSI
//! write-invalidate protocol.
//!
//! Lock discipline (deadlock freedom): the fast path takes only the
//! node's own cache lock. On a miss the cache lock is *released* before
//! the directory lock is taken; directory operations may then take any
//! cache lock, and no thread ever waits for the directory while holding
//! a cache lock.

use crate::stats::{DsmStats, StatCounters};
use std::collections::{BTreeSet, HashMap};
use std::sync::{Arc, Mutex};

/// MSI state of a locally cached page.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum PageState {
    /// Exclusive, dirty.
    Modified,
    /// Clean, possibly shared with other nodes.
    Shared,
}

#[derive(Debug)]
struct CachedPage {
    state: PageState,
    data: Vec<u8>,
}

/// Directory entry for one page.
#[derive(Debug)]
struct DirEntry {
    /// Authoritative copy — stale while `owner` is `Some`.
    data: Vec<u8>,
    /// Node holding the page in Modified state.
    owner: Option<usize>,
    /// Nodes holding the page in Shared state.
    sharers: BTreeSet<usize>,
}

struct Inner {
    page_size: usize,
    size: usize,
    directory: Mutex<Vec<DirEntry>>,
    caches: Vec<Mutex<HashMap<usize, CachedPage>>>,
    stats: StatCounters,
}

/// A DSM region shared by a fixed set of nodes.
pub struct DsmRegion {
    inner: Arc<Inner>,
}

/// A consistent point-in-time copy of a region's pages.
///
/// Captured under the directory lock, so it reflects one sequentially
/// consistent cut: every page holds the authoritative bytes (dirty
/// owner copies are pulled without disturbing MSI state). Restoring a
/// snapshot rewinds the region to exactly these bytes.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DsmSnapshot {
    page_size: usize,
    size: usize,
    pages: Vec<Vec<u8>>,
}

impl DsmSnapshot {
    /// Bytes `offset..offset + len`, assembled across pages.
    ///
    /// # Panics
    /// If the range exceeds the snapshot size.
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        assert!(offset + len <= self.size, "read past snapshot of {} bytes", self.size);
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < offset + len {
            let page = pos / self.page_size;
            let in_page = pos % self.page_size;
            let take = (self.page_size - in_page).min(offset + len - pos);
            out.extend_from_slice(&self.pages[page][in_page..in_page + take]);
            pos += take;
        }
        out
    }
}

/// One node's view of a [`DsmRegion`]. Cloneable and `Send`; clones share
/// the node's cache.
#[derive(Clone)]
pub struct DsmHandle {
    inner: Arc<Inner>,
    node: usize,
}

impl DsmRegion {
    /// A zero-initialised region of `size` bytes in pages of `page_size`
    /// bytes, shared by `nodes` nodes.
    ///
    /// # Panics
    /// If `page_size` or `nodes` is zero, or `size` is zero.
    pub fn new(size: usize, page_size: usize, nodes: usize) -> Self {
        assert!(size > 0 && page_size > 0 && nodes > 0);
        let pages = size.div_ceil(page_size);
        let directory = (0..pages)
            .map(|_| DirEntry { data: vec![0u8; page_size], owner: None, sharers: BTreeSet::new() })
            .collect();
        DsmRegion {
            inner: Arc::new(Inner {
                page_size,
                size,
                directory: Mutex::new(directory),
                caches: (0..nodes).map(|_| Mutex::new(HashMap::new())).collect(),
                stats: StatCounters::default(),
            }),
        }
    }

    /// Number of participating nodes.
    pub(crate) fn nodes(&self) -> usize {
        self.inner.caches.len()
    }

    /// Obtain node `node`'s handle.
    ///
    /// # Panics
    /// If `node` is out of range.
    pub fn handle(&self, node: usize) -> DsmHandle {
        assert!(node < self.nodes(), "node {node} out of range");
        DsmHandle { inner: Arc::clone(&self.inner), node }
    }

    /// Protocol counters so far.
    pub fn stats(&self) -> DsmStats {
        self.inner.stats.snapshot()
    }

    /// Capture a consistent snapshot of every page.
    ///
    /// Runs under the directory lock, so no miss can interleave: the
    /// captured pages form one sequentially consistent cut. Pages with a
    /// dirty (Modified) owner are pulled from the owner's cache without
    /// changing its MSI state — the snapshot is a pure reader, never an
    /// invalidator, so it perturbs neither placement nor hit rates.
    pub fn snapshot(&self) -> DsmSnapshot {
        let inner = &self.inner;
        let dir = inner.directory.lock().unwrap();
        let mut pages = Vec::with_capacity(dir.len());
        let mut dirty_pulls = 0u64;
        for (page, entry) in dir.iter().enumerate() {
            if let Some(owner) = entry.owner {
                // The directory copy is stale while owned; pull the live
                // bytes. Safe under the lock discipline: directory ops may
                // take cache locks.
                let owner_cache = inner.caches[owner].lock().unwrap();
                if let Some(p) = owner_cache.get(&page) {
                    pages.push(p.data.clone());
                    dirty_pulls += 1;
                    continue;
                }
            }
            pages.push(entry.data.clone());
        }
        drop(dir);
        StatCounters::bump(&inner.stats.snapshots);
        StatCounters::add(&inner.stats.snapshot_page_copies, dirty_pulls);
        DsmSnapshot { page_size: inner.page_size, size: inner.size, pages }
    }

    /// Rewind the region to `snap`.
    ///
    /// Under the directory lock every page's authoritative bytes are
    /// overwritten, ownership is revoked and every cached copy on every
    /// node is invalidated — the next access on any node re-fetches the
    /// restored bytes.
    ///
    /// # Panics
    /// If the snapshot geometry (size / page size) does not match.
    pub fn restore(&self, snap: &DsmSnapshot) {
        let inner = &self.inner;
        assert_eq!(snap.size, inner.size, "snapshot size mismatch");
        assert_eq!(snap.page_size, inner.page_size, "snapshot page size mismatch");
        let mut dir = inner.directory.lock().unwrap();
        assert_eq!(snap.pages.len(), dir.len(), "snapshot page count mismatch");
        let mut invalidated = 0u64;
        for (page, entry) in dir.iter_mut().enumerate() {
            entry.data.copy_from_slice(&snap.pages[page]);
            entry.owner = None;
            entry.sharers.clear();
            for cache in &inner.caches {
                if cache.lock().unwrap().remove(&page).is_some() {
                    invalidated += 1;
                }
            }
        }
        let pages = dir.len() as u64;
        drop(dir);
        StatCounters::bump(&inner.stats.restores);
        StatCounters::add(&inner.stats.snapshot_page_copies, pages);
        StatCounters::add(&inner.stats.invalidations, invalidated);
    }
}

impl Inner {
    /// Serve a read miss: make `node` a sharer with current data.
    fn read_miss(&self, node: usize, page: usize) {
        StatCounters::bump(&self.stats.read_misses);
        let mut dir = self.directory.lock().unwrap();
        let entry = &mut dir[page];
        if let Some(owner) = entry.owner {
            if owner != node {
                // Write-back: pull the dirty copy, downgrade owner M → S.
                let mut owner_cache = self.caches[owner].lock().unwrap();
                if let Some(p) = owner_cache.get_mut(&page) {
                    entry.data.copy_from_slice(&p.data);
                    p.state = PageState::Shared;
                }
                drop(owner_cache);
                entry.owner = None;
                entry.sharers.insert(owner);
                StatCounters::bump(&self.stats.page_transfers);
            } else {
                // We already own it (raced with ourselves) — nothing to do.
                entry.sharers.insert(node);
                return;
            }
        }
        entry.sharers.insert(node);
        let data = entry.data.clone();
        StatCounters::bump(&self.stats.page_transfers);
        // Install before releasing the directory: once `node` is listed as
        // a sharer a writer may invalidate it, and an invalidation that
        // ran ahead of the install would leave a copy nobody knows about.
        let mut cache = self.caches[node].lock().unwrap();
        cache.insert(page, CachedPage { state: PageState::Shared, data });
        drop(cache);
        drop(dir);
    }

    /// Serve a write miss/upgrade: make `node` the exclusive owner.
    fn write_miss(&self, node: usize, page: usize) {
        StatCounters::bump(&self.stats.write_misses);
        let mut dir = self.directory.lock().unwrap();
        let entry = &mut dir[page];
        if entry.owner == Some(node) {
            return; // raced: already exclusive
        }
        if let Some(owner) = entry.owner {
            // Pull the dirty copy and invalidate the old owner.
            let mut owner_cache = self.caches[owner].lock().unwrap();
            if let Some(p) = owner_cache.remove(&page) {
                entry.data.copy_from_slice(&p.data);
            }
            drop(owner_cache);
            entry.owner = None;
            StatCounters::bump(&self.stats.invalidations);
            StatCounters::bump(&self.stats.page_transfers);
        }
        // Invalidate every other sharer.
        let sharers: Vec<usize> = entry.sharers.iter().copied().filter(|&s| s != node).collect();
        for s in sharers {
            self.caches[s].lock().unwrap().remove(&page);
            StatCounters::bump(&self.stats.invalidations);
        }
        entry.sharers.clear();
        entry.owner = Some(node);
        let data = entry.data.clone();
        StatCounters::bump(&self.stats.page_transfers);
        // Install before releasing the directory, as in `read_miss`: the
        // next writer must find the copy it is told to pull and invalidate.
        let mut cache = self.caches[node].lock().unwrap();
        match cache.get_mut(&page) {
            // Upgrade in place keeps locally visible bytes (we were a
            // sharer with identical data).
            Some(p) => p.state = PageState::Modified,
            None => {
                cache.insert(page, CachedPage { state: PageState::Modified, data });
            }
        }
        drop(cache);
        drop(dir);
    }
}

impl DsmHandle {
    fn check_range(&self, offset: usize, len: usize) {
        assert!(
            offset + len <= self.inner.size,
            "access [{offset}, {}) outside region of {} bytes",
            offset + len,
            self.inner.size
        );
    }

    /// Read `len` bytes at `offset` (sequentially consistent).
    pub fn read(&self, offset: usize, len: usize) -> Vec<u8> {
        self.check_range(offset, len);
        let ps = self.inner.page_size;
        let mut out = Vec::with_capacity(len);
        let mut pos = offset;
        while pos < offset + len {
            let page = pos / ps;
            let in_page = pos % ps;
            let take = (ps - in_page).min(offset + len - pos);
            let mut missed = false;
            loop {
                {
                    let cache = self.inner.caches[self.node].lock().unwrap();
                    if let Some(p) = cache.get(&page) {
                        if !missed {
                            StatCounters::bump(&self.inner.stats.read_hits);
                        }
                        out.extend_from_slice(&p.data[in_page..in_page + take]);
                        break;
                    }
                }
                missed = true;
                self.inner.read_miss(self.node, page);
            }
            pos += take;
        }
        out
    }

    /// Write `data` at `offset` (write-invalidate; sequentially
    /// consistent).
    pub fn write(&self, offset: usize, data: &[u8]) {
        self.check_range(offset, data.len());
        let ps = self.inner.page_size;
        let mut pos = offset;
        let mut src = 0usize;
        while pos < offset + data.len() {
            let page = pos / ps;
            let in_page = pos % ps;
            let take = (ps - in_page).min(offset + data.len() - pos);
            let mut missed = false;
            loop {
                {
                    let mut cache = self.inner.caches[self.node].lock().unwrap();
                    if let Some(p) = cache.get_mut(&page) {
                        if p.state == PageState::Modified {
                            if !missed {
                                StatCounters::bump(&self.inner.stats.write_hits);
                            }
                            p.data[in_page..in_page + take].copy_from_slice(&data[src..src + take]);
                            break;
                        }
                    }
                }
                missed = true;
                self.inner.write_miss(self.node, page);
            }
            pos += take;
            src += take;
        }
    }

    /// Read an `f64` at byte `offset`.
    pub fn read_f64(&self, offset: usize) -> f64 {
        let b = self.read(offset, 8);
        f64::from_le_bytes(b.try_into().expect("8 bytes"))
    }

    /// Write an `f64` at byte `offset`.
    pub fn write_f64(&self, offset: usize, value: f64) {
        self.write(offset, &value.to_le_bytes());
    }

    /// Read a `u64` at byte `offset`.
    pub fn read_u64(&self, offset: usize) -> u64 {
        let b = self.read(offset, 8);
        u64::from_le_bytes(b.try_into().expect("8 bytes"))
    }

    /// Write a `u64` at byte `offset`.
    pub fn write_u64(&self, offset: usize, value: u64) {
        self.write(offset, &value.to_le_bytes());
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn fresh_region_reads_zero() {
        let dsm = DsmRegion::new(1024, 64, 2);
        let h = dsm.handle(0);
        assert!(h.read(0, 1024).iter().all(|b| *b == 0));
    }

    #[test]
    fn write_is_visible_to_other_nodes() {
        let dsm = DsmRegion::new(1024, 64, 3);
        let a = dsm.handle(0);
        let b = dsm.handle(1);
        let c = dsm.handle(2);
        a.write(100, b"hello dsm");
        assert_eq!(b.read(100, 9), b"hello dsm");
        assert_eq!(c.read(100, 9), b"hello dsm");
    }

    #[test]
    fn cross_page_access_round_trips() {
        let dsm = DsmRegion::new(1024, 16, 2);
        let a = dsm.handle(0);
        let payload: Vec<u8> = (0..100u8).collect();
        a.write(10, &payload); // spans 7 pages
        assert_eq!(dsm.handle(1).read(10, 100), payload);
    }

    #[test]
    fn f64_helpers_straddle_pages() {
        let dsm = DsmRegion::new(64, 8, 2);
        let a = dsm.handle(0);
        a.write_f64(4, 1234.5678); // crosses the page boundary at 8
        assert_eq!(dsm.handle(1).read_f64(4), 1234.5678);
    }

    #[test]
    fn writer_invalidates_readers() {
        let dsm = DsmRegion::new(256, 64, 2);
        let a = dsm.handle(0);
        let b = dsm.handle(1);
        a.write_u64(0, 1);
        assert_eq!(b.read_u64(0), 1); // b now shares page 0
        let inval_before = dsm.stats().invalidations;
        a.write_u64(0, 2); // a must upgrade, invalidating b
        assert!(dsm.stats().invalidations > inval_before);
        assert_eq!(b.read_u64(0), 2, "b re-fetches the new value");
    }

    #[test]
    fn repeated_local_access_hits_cache() {
        let dsm = DsmRegion::new(256, 64, 2);
        let a = dsm.handle(0);
        a.write_u64(0, 7);
        let s0 = dsm.stats();
        for _ in 0..100 {
            assert_eq!(a.read_u64(0), 7);
            a.write_u64(0, 7);
        }
        let s1 = dsm.stats();
        assert_eq!(s1.read_misses, s0.read_misses, "no further read misses");
        assert_eq!(s1.write_misses, s0.write_misses, "no further write misses");
        assert_eq!(s1.read_hits - s0.read_hits, 100);
        assert_eq!(s1.write_hits - s0.write_hits, 100);
    }

    #[test]
    fn ping_pong_counts_transfers() {
        let dsm = DsmRegion::new(64, 64, 2);
        let a = dsm.handle(0);
        let b = dsm.handle(1);
        for i in 0..10u64 {
            a.write_u64(0, i);
            assert_eq!(b.read_u64(0), i);
        }
        let s = dsm.stats();
        assert!(s.page_transfers >= 19, "ping-pong must transfer pages: {s:?}");
    }

    #[test]
    fn disjoint_pages_do_not_interfere() {
        let dsm = DsmRegion::new(4096, 64, 4);
        let handles: Vec<_> = (0..4).map(|n| dsm.handle(n)).collect();
        let threads: Vec<_> = handles
            .into_iter()
            .enumerate()
            .map(|(i, h)| {
                thread::spawn(move || {
                    let base = i * 1024;
                    for j in 0..128u64 {
                        h.write_u64(base + (j as usize % 100) * 8, j);
                    }
                    h.read_u64(base)
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        // After the dust settles each node's last writes are visible
        // globally.
        let h = dsm.handle(0);
        // Slot 0 of each node's range received j = 0 then j = 100; the
        // last write (100) must be globally visible.
        for i in 0..4 {
            assert_eq!(h.read_u64(i * 1024), 100, "node {i} slot 0");
        }
    }

    #[test]
    #[should_panic(expected = "outside region")]
    fn out_of_range_access_panics() {
        let dsm = DsmRegion::new(64, 16, 1);
        dsm.handle(0).read(60, 8);
    }

    #[test]
    #[should_panic(expected = "out of range")]
    fn bad_node_id_panics() {
        let dsm = DsmRegion::new(64, 16, 1);
        dsm.handle(1);
    }

    #[test]
    fn snapshot_captures_dirty_owner_pages() {
        let dsm = DsmRegion::new(256, 64, 2);
        let a = dsm.handle(0);
        a.write_u64(0, 42); // page 0 owned dirty by node 0
        let snap = dsm.snapshot();
        assert_eq!(snap.pages.len(), 4);
        assert_eq!(u64::from_le_bytes(snap.read(0, 8).try_into().unwrap()), 42);
        // Snapshot is a pure reader: node 0 still owns the page, so the
        // next local write is a hit, not a miss.
        let before = dsm.stats();
        a.write_u64(0, 43);
        let after = dsm.stats();
        assert_eq!(after.write_misses, before.write_misses, "snapshot must not steal ownership");
        assert_eq!(after.write_hits, before.write_hits + 1);
    }

    #[test]
    fn snapshot_restore_round_trips_bit_identically() {
        let dsm = DsmRegion::new(1024, 32, 3);
        let a = dsm.handle(0);
        let b = dsm.handle(1);
        let payload: Vec<u8> = (0..200u8).map(|i| i.wrapping_mul(7)).collect();
        a.write(5, &payload);
        b.write_f64(512, 1.618033989);
        let before = dsm.handle(2).read(0, 1024);
        let snap = dsm.snapshot();

        // Diverge, then rewind.
        a.write(5, &[0xAA; 200]);
        b.write_f64(512, -1.0);
        dsm.restore(&snap);

        for n in 0..3 {
            assert_eq!(dsm.handle(n).read(0, 1024), before, "node {n} sees restored bytes");
        }
        assert_eq!(snap.read(0, 1024), before, "snapshot itself holds the same bytes");
    }

    #[test]
    fn restore_invalidates_every_cache() {
        let dsm = DsmRegion::new(128, 64, 2);
        let a = dsm.handle(0);
        let b = dsm.handle(1);
        a.write_u64(0, 1);
        assert_eq!(b.read_u64(0), 1); // both nodes now cache page 0
        let snap = dsm.snapshot();
        a.write_u64(0, 9);
        let inval_before = dsm.stats().invalidations;
        dsm.restore(&snap);
        assert!(dsm.stats().invalidations > inval_before, "restore invalidates cached copies");
        let miss_before = dsm.stats().read_misses;
        assert_eq!(b.read_u64(0), 1, "reader re-fetches the restored value");
        assert!(dsm.stats().read_misses > miss_before, "post-restore read is a miss");
    }

    #[test]
    fn snapshot_stats_account_traffic() {
        let dsm = DsmRegion::new(256, 64, 2);
        dsm.handle(0).write_u64(0, 5); // one dirty owned page
        let snap = dsm.snapshot();
        let s = dsm.stats();
        assert_eq!(s.snapshots, 1);
        assert_eq!(s.restores, 0);
        assert_eq!(s.snapshot_page_copies, 1, "one dirty-owner pull");
        dsm.restore(&snap);
        let s = dsm.stats();
        assert_eq!(s.restores, 1);
        assert_eq!(s.snapshot_page_copies, 1 + 4, "restore writes back all 4 pages");
    }

    #[test]
    fn concurrent_siege_converges() {
        // Many nodes hammer the same word; afterwards the value is one of
        // the written values and all caches agree.
        let dsm = Arc::new(DsmRegion::new(64, 64, 8));
        let threads: Vec<_> = (0..8)
            .map(|n| {
                let h = dsm.handle(n);
                thread::spawn(move || {
                    for i in 0..200u64 {
                        h.write_u64(0, n as u64 * 1000 + i);
                        h.read_u64(0);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        let final_vals: Vec<u64> = (0..8).map(|n| dsm.handle(n).read_u64(0)).collect();
        assert!(final_vals.windows(2).all(|w| w[0] == w[1]), "all nodes agree: {final_vals:?}");
        let v = final_vals[0];
        assert!((v % 1000) == 199, "last write of some node wins: {v}");
    }
}
