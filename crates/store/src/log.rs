//! [`AppendLog`] — the shared in-memory append-only buffer.
//!
//! Before this crate, three components each hand-rolled the same
//! `Arc<Mutex<Vec<T>>>` shape: the runtime `EventLog`, the obs
//! `TraceSink`, and the checkpoint store's record list. This is that
//! shape, once — clones share the buffer, appends never reorder, and
//! there is exactly one write path ([`AppendLog::push`]).

use std::sync::{Arc, Mutex};

/// A shared append-only buffer. Cloning shares the underlying storage.
#[derive(Debug)]
pub struct AppendLog<T> {
    inner: Arc<Mutex<Vec<T>>>,
}

impl<T> Clone for AppendLog<T> {
    fn clone(&self) -> Self {
        AppendLog { inner: Arc::clone(&self.inner) }
    }
}

impl<T> Default for AppendLog<T> {
    fn default() -> Self {
        AppendLog::new()
    }
}

impl<T> AppendLog<T> {
    /// Empty log.
    pub fn new() -> Self {
        AppendLog { inner: Arc::new(Mutex::new(Vec::new())) }
    }

    /// Append one entry; returns its 0-based index.
    pub fn push(&self, entry: T) -> usize {
        let mut v = self.inner.lock().unwrap();
        v.push(entry);
        v.len() - 1
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.inner.lock().unwrap().len()
    }

    /// Is the log empty?
    pub fn is_empty(&self) -> bool {
        self.inner.lock().unwrap().is_empty()
    }

    /// Run `f` over the entries under the lock (read-only view).
    pub fn with<R>(&self, f: impl FnOnce(&[T]) -> R) -> R {
        f(&self.inner.lock().unwrap())
    }
}

impl<T: Clone> AppendLog<T> {
    /// Clone of every entry, in append order.
    pub fn snapshot(&self) -> Vec<T> {
        self.inner.lock().unwrap().clone()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn push_returns_indices_and_clones_share() {
        let log: AppendLog<u32> = AppendLog::new();
        assert_eq!(log.push(10), 0);
        let shared = log.clone();
        assert_eq!(shared.push(20), 1);
        assert_eq!(log.snapshot(), vec![10, 20]);
        assert_eq!(log.len(), 2);
        assert!(!log.is_empty());
        assert_eq!(log.with(|v| v.iter().sum::<u32>()), 30);
    }

    #[test]
    fn concurrent_pushes_are_all_kept() {
        let log: AppendLog<u64> = AppendLog::new();
        let handles: Vec<_> = (0..8)
            .map(|_| {
                let l = log.clone();
                std::thread::spawn(move || {
                    for i in 0..100 {
                        l.push(i);
                    }
                })
            })
            .collect();
        for h in handles {
            h.join().unwrap();
        }
        assert_eq!(log.len(), 800);
    }
}
