//! Recovery primitives: bounded retry backoff and dead-host quarantine.
//!
//! §4.1's Runtime System "detects failures \[and\] reschedules overloaded
//! tasks"; this module holds the two pieces of state that policy needs
//! beyond the event streams themselves:
//!
//! - [`BackoffPolicy`] — the capped exponential retry schedule the fault
//!   replay waits out, in virtual time, before relaunching a task;
//! - [`Quarantine`] — the set of hosts currently considered dead. A host
//!   enters on a failure report and is **re-admitted on recovery**, so a
//!   transient outage only excludes the host for the outage window.
//!
//! [`Quarantine`] and [`SiteQuarantine`] are plain values the fault
//! replay owns: its failure handling admits and re-admits members, and
//! its re-selection and start paths read them.

use std::borrow::Borrow;
use std::collections::BTreeSet;
use vdce_net::topology::SiteId;

/// Capped exponential backoff for transient-fault retries.
///
/// Delay before retry attempt `n` (0-based) is
/// `min(base_s * factor^n, max_s)`; after `max_retries` failed attempts
/// the task is abandoned. Times are virtual seconds of the fault replay.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct BackoffPolicy {
    /// Delay before the first retry, seconds.
    pub base_s: f64,
    /// Multiplier applied per attempt.
    pub factor: f64,
    /// Ceiling on any single delay, seconds.
    pub max_s: f64,
    /// Retries allowed after the initial attempt; 0 disables retrying.
    pub max_retries: u32,
}

impl Default for BackoffPolicy {
    fn default() -> Self {
        BackoffPolicy { base_s: 0.5, factor: 2.0, max_s: 8.0, max_retries: 5 }
    }
}

impl BackoffPolicy {
    /// Delay in seconds before retry `attempt` (0-based), capped at
    /// `max_s`.
    pub fn delay(&self, attempt: u32) -> f64 {
        (self.base_s * self.factor.powi(attempt as i32)).min(self.max_s)
    }
}

/// A set of members currently considered dead, with lifetime counts of
/// admissions and re-admissions: the one body behind [`Quarantine`] and
/// [`SiteQuarantine`].
#[derive(Debug, Default)]
pub struct QuarantineSet<T> {
    members: BTreeSet<T>,
    quarantined_total: u64,
    readmitted_total: u64,
}

/// The set of hosts currently considered dead. Counters record lifetime
/// admissions/re-admissions for the [`RecoveryReport`] rollup.
///
/// [`RecoveryReport`]: https://docs.rs/vdce-sim
pub type Quarantine = QuarantineSet<String>;

/// The set of *sites* currently unreachable as a whole — the
/// federation-level analogue of [`Quarantine`] (DESIGN.md §12). A site
/// enters when its last host stops answering (see
/// `SiteFailover::on_host_down`) and is re-admitted when any host
/// returns; while quarantined its views are excluded from scheduling and
/// re-selection, and its checkpoint replicas count as unreachable.
pub type SiteQuarantine = QuarantineSet<u16>;

impl<T: Ord + Default> QuarantineSet<T> {
    /// Empty quarantine.
    pub fn new() -> Self {
        Self::default()
    }

    /// Admit `member`, counting it if it was not already in.
    fn insert(&mut self, member: T) -> bool {
        let fresh = self.members.insert(member);
        self.quarantined_total += u64::from(fresh);
        fresh
    }

    /// Release `member`, counting it if it was in.
    fn remove<Q: Ord + ?Sized>(&mut self, member: &Q) -> bool
    where
        T: Borrow<Q>,
    {
        let was_in = self.members.remove(member);
        self.readmitted_total += u64::from(was_in);
        was_in
    }

    /// The current membership (sorted).
    pub fn members(&self) -> &BTreeSet<T> {
        &self.members
    }

    /// Number of members currently quarantined.
    pub fn len(&self) -> usize {
        self.members.len()
    }

    /// True when nothing is quarantined.
    pub fn is_empty(&self) -> bool {
        self.members.is_empty()
    }

    /// Lifetime count of quarantine admissions.
    pub fn quarantined_total(&self) -> u64 {
        self.quarantined_total
    }

    /// Lifetime count of re-admissions.
    pub fn readmitted_total(&self) -> u64 {
        self.readmitted_total
    }
}

impl Quarantine {
    /// Record a host failure. Returns `true` if the host was newly
    /// quarantined (false if already present).
    pub fn quarantine(&mut self, host: &str) -> bool {
        self.insert(host.to_string())
    }

    /// Record a host recovery. Returns `true` if the host was present
    /// and has been re-admitted.
    pub fn readmit(&mut self, host: &str) -> bool {
        self.remove(host)
    }

    /// Is `host` currently quarantined?
    pub fn contains(&self, host: &str) -> bool {
        self.members.contains(host)
    }
}

impl SiteQuarantine {
    /// Record a whole-site failure. Returns `true` if the site was newly
    /// quarantined.
    pub fn quarantine(&mut self, site: SiteId) -> bool {
        self.insert(site.0)
    }

    /// Record a site rejoining. Returns `true` if the site was present
    /// and has been re-admitted.
    pub fn readmit(&mut self, site: SiteId) -> bool {
        self.remove(&site.0)
    }

    /// Is `site` currently quarantined?
    pub fn contains(&self, site: SiteId) -> bool {
        self.members.contains(&site.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_grows_exponentially_then_caps() {
        let p = BackoffPolicy { base_s: 0.5, factor: 2.0, max_s: 8.0, max_retries: 10 };
        assert_eq!(p.delay(0), 0.5);
        assert_eq!(p.delay(1), 1.0);
        assert_eq!(p.delay(2), 2.0);
        assert_eq!(p.delay(3), 4.0);
        assert_eq!(p.delay(4), 8.0);
        assert_eq!(p.delay(5), 8.0, "capped at max_s");
        assert_eq!(p.delay(30), 8.0, "stays capped arbitrarily far out");
    }

    #[test]
    fn every_delay_is_within_bounds() {
        let p = BackoffPolicy::default();
        for attempt in 0..p.max_retries {
            let d = p.delay(attempt);
            assert!(d >= p.base_s, "delay never below base");
            assert!(d <= p.max_s, "delay never above cap");
        }
    }

    #[test]
    fn quarantine_admits_once_and_readmits() {
        let mut q = Quarantine::new();
        assert!(q.quarantine("h0"));
        assert!(!q.quarantine("h0"), "double admission is a no-op");
        assert!(q.contains("h0"));
        assert_eq!(q.len(), 1);

        assert!(q.readmit("h0"));
        assert!(!q.contains("h0"));
        assert!(q.is_empty());
        assert!(!q.readmit("h0"), "double re-admission is a no-op");

        assert_eq!(q.quarantined_total(), 1);
        assert_eq!(q.readmitted_total(), 1);
    }

    #[test]
    fn quarantine_readmission_allows_requarantine() {
        let mut q = Quarantine::new();
        q.quarantine("h0");
        q.readmit("h0");
        assert!(q.quarantine("h0"), "host can fail again after recovery");
        assert_eq!(q.quarantined_total(), 2);
        assert_eq!(q.members().iter().collect::<Vec<_>>(), vec!["h0"]);
    }

    #[test]
    fn site_quarantine_mirrors_host_quarantine_semantics() {
        let mut q = SiteQuarantine::new();
        assert!(q.is_empty());
        assert!(q.quarantine(SiteId(2)));
        assert!(!q.quarantine(SiteId(2)), "double admission is a no-op");
        assert!(q.contains(SiteId(2)));
        assert!(!q.contains(SiteId(0)));
        assert_eq!(q.len(), 1);
        assert!(q.readmit(SiteId(2)));
        assert!(!q.readmit(SiteId(2)));
        assert!(q.quarantine(SiteId(2)), "site can fail again after rejoining");
        assert_eq!(q.quarantined_total(), 2);
        assert_eq!(q.readmitted_total(), 1);
        assert_eq!(q.members().iter().collect::<Vec<_>>(), vec![&2u16]);
    }
}
