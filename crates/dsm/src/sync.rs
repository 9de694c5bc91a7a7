//! Synchronisation primitives for DSM applications.
//!
//! Shared-memory VDCE applications need the classic pair: a **barrier**
//! separating computation phases (every mid-90s DSM paper's stencil loop)
//! and a **lock** protecting read-modify-write sequences, since the DSM
//! itself only guarantees per-access coherence.

use std::sync::{Arc, Condvar, Mutex};

/// A reusable barrier for a fixed number of DSM nodes.
///
/// Unlike `std::sync::Barrier` it exposes the generation counter, which
/// experiments use to assert phase counts.
#[derive(Clone)]
pub struct DsmBarrier {
    inner: Arc<BarrierInner>,
}

struct BarrierInner {
    state: Mutex<(usize, u64)>, // (waiting, generation)
    cond: Condvar,
    parties: usize,
}

impl DsmBarrier {
    /// Barrier for `parties` nodes.
    ///
    /// # Panics
    /// If `parties` is zero.
    pub fn new(parties: usize) -> Self {
        assert!(parties > 0);
        DsmBarrier {
            inner: Arc::new(BarrierInner {
                state: Mutex::new((0, 0)),
                cond: Condvar::new(),
                parties,
            }),
        }
    }

    /// Wait for all parties; returns the generation that just completed.
    /// Exactly one caller per generation gets `is_leader == true`.
    pub fn wait(&self) -> BarrierResult {
        let mut s = self.inner.state.lock().unwrap();
        let gen = s.1;
        s.0 += 1;
        if s.0 == self.inner.parties {
            s.0 = 0;
            s.1 += 1;
            self.inner.cond.notify_all();
            BarrierResult { generation: gen, is_leader: true }
        } else {
            let _released = self.inner.cond.wait_while(s, |s| s.1 == gen).unwrap();
            BarrierResult { generation: gen, is_leader: false }
        }
    }

    /// Completed generations so far.
    pub fn generation(&self) -> u64 {
        self.inner.state.lock().unwrap().1
    }
}

/// Outcome of a barrier wait.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BarrierResult {
    /// The generation index that completed.
    pub generation: u64,
    /// Whether this caller was the last to arrive.
    pub(crate) is_leader: bool,
}

/// A DSM-wide mutual-exclusion lock (centralised lock manager, as the
/// 90s DSMs used). Cloneable; clones contend on the same lock.
#[derive(Clone, Default)]
pub struct DsmLock {
    inner: Arc<LockInner>,
}

#[derive(Default)]
struct LockInner {
    locked: Mutex<bool>,
    cond: Condvar,
}

/// RAII guard for [`DsmLock`].
pub struct DsmLockGuard<'a> {
    lock: &'a DsmLock,
}

impl DsmLock {
    /// A fresh, unlocked lock.
    pub fn new() -> Self {
        Self::default()
    }

    /// Acquire, blocking. No other package calls it: it stays `pub` as
    /// the DSM's lock API for shared-memory applications, held to exact
    /// read-modify-write counts by `lock_serialises_read_modify_write_on_dsm`.
    pub fn acquire(&self) -> DsmLockGuard<'_> {
        let mut l = self.inner.cond.wait_while(self.inner.locked.lock().unwrap(), |l| *l).unwrap();
        *l = true;
        DsmLockGuard { lock: self }
    }
}

impl Drop for DsmLockGuard<'_> {
    fn drop(&mut self) {
        let mut l = self.lock.inner.locked.lock().unwrap();
        *l = false;
        self.lock.inner.cond.notify_one();
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::region::DsmRegion;
    use std::thread;

    #[test]
    fn barrier_releases_all_and_counts_generations() {
        let b = DsmBarrier::new(4);
        let mut handles = Vec::new();
        for _ in 0..4 {
            let b = b.clone();
            handles.push(thread::spawn(move || {
                let r1 = b.wait();
                let r2 = b.wait();
                (r1.generation, r2.generation)
            }));
        }
        for h in handles {
            let (g1, g2) = h.join().unwrap();
            assert_eq!(g1, 0);
            assert_eq!(g2, 1);
        }
        assert_eq!(b.generation(), 2);
    }

    #[test]
    fn exactly_one_leader_per_generation() {
        let b = DsmBarrier::new(3);
        let handles: Vec<_> = (0..3)
            .map(|_| {
                let b = b.clone();
                thread::spawn(move || b.wait().is_leader)
            })
            .collect();
        let flags: Vec<bool> = handles.into_iter().map(|h| h.join().unwrap()).collect();
        assert_eq!(flags.iter().filter(|f| **f).count(), 1);
    }

    #[test]
    #[should_panic]
    fn zero_party_barrier_panics() {
        DsmBarrier::new(0);
    }

    #[test]
    fn lock_serialises_read_modify_write_on_dsm() {
        // Without the lock, concurrent counter increments on DSM lose
        // updates; with it, the count is exact.
        let dsm = std::sync::Arc::new(DsmRegion::new(64, 64, 4));
        let lock = DsmLock::new();
        let threads: Vec<_> = (0..4)
            .map(|n| {
                let h = dsm.handle(n);
                let lock = lock.clone();
                thread::spawn(move || {
                    for _ in 0..250 {
                        let _g = lock.acquire();
                        let v = h.read_u64(0);
                        h.write_u64(0, v + 1);
                    }
                })
            })
            .collect();
        for t in threads {
            t.join().unwrap();
        }
        assert_eq!(dsm.handle(0).read_u64(0), 1000);
    }
}
