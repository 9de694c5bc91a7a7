//! Leader-follower replication with state-hash divergence detection.
//!
//! The leader (a Site Manager's repository) ships every journaled
//! event to its deputy's replica through a [`Replicator`]. The
//! follower applies each event to its own copy of the state machine;
//! on a fixed cadence (and whenever the caller forces a check) the
//! leader's state hash rides along and is compared against the
//! replica's. Because both sides run the same deterministic
//! `apply(event)` from the same initial state, any mismatch means real
//! trouble — a lost frame, a non-deterministic apply, or replica
//! corruption — and surfaces as [`ReplicationError::Divergence`]: a
//! typed, sticky error the caller turns into a metric, never a panic.

/// The follower side: a replica state machine that can apply shipped
/// events and fingerprint its state.
pub trait Replica {
    /// Apply one `(tag, payload)` event to the replica state.
    fn apply_event(&mut self, tag: &str, payload: &str);
    /// Deterministic fingerprint of the replica's current state.
    fn state_hash(&self) -> u64;
}

/// Replication failure, detected by the channel.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ReplicationError {
    /// Leader and follower disagree on the state fingerprint.
    Divergence {
        /// Frame sequence number at which the check ran.
        seq: u64,
        /// The leader's state hash.
        leader: u64,
        /// The follower's state hash.
        follower: u64,
    },
}

impl std::fmt::Display for ReplicationError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            ReplicationError::Divergence { seq, leader, follower } => write!(
                f,
                "replica diverged at frame {seq}: leader hash {leader:#018x}, \
                 follower {follower:#018x}"
            ),
        }
    }
}

impl std::error::Error for ReplicationError {}

/// Channel activity counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct ReplicationStats {
    /// Frames shipped to the follower.
    pub frames: u64,
    /// Hash comparisons performed.
    pub hash_checks: u64,
    /// Divergences detected (sticky — the first one latches).
    pub divergences: u64,
}

/// The leader side of one replication channel.
///
/// `check_every` bounds the divergence-detection lag: a corrupted
/// replica is caught at most that many frames after the corruption.
#[derive(Debug, Clone)]
pub struct Replicator {
    seq: u64,
    check_every: u64,
    stats: ReplicationStats,
}

impl Replicator {
    /// Channel comparing state hashes every `check_every` frames
    /// (`0` = only on [`Replicator::check`]).
    pub fn new(check_every: u64) -> Self {
        Replicator { seq: 0, check_every, stats: ReplicationStats::default() }
    }

    /// Ship one event: apply it to the replica and, when the check
    /// cadence comes due, compare `leader_hash()` against the
    /// replica's. The leader hash closure only runs on check frames.
    pub fn replicate<R: Replica>(
        &mut self,
        replica: &mut R,
        tag: &str,
        payload: &str,
        leader_hash: impl FnOnce() -> u64,
    ) -> Result<(), ReplicationError> {
        replica.apply_event(tag, payload);
        self.seq += 1;
        self.stats.frames += 1;
        if self.check_every > 0 && self.seq.is_multiple_of(self.check_every) {
            self.compare(replica, leader_hash())
        } else {
            Ok(())
        }
    }

    /// Force a hash check now (e.g. at a failover boundary).
    pub fn check<R: Replica>(
        &mut self,
        replica: &R,
        leader_hash: u64,
    ) -> Result<(), ReplicationError> {
        self.compare(replica, leader_hash)
    }

    fn compare<R: Replica>(&mut self, replica: &R, leader: u64) -> Result<(), ReplicationError> {
        self.stats.hash_checks += 1;
        let follower = replica.state_hash();
        if leader == follower {
            return Ok(());
        }
        // Sticky: the first divergence latches, later ones are only
        // reported.
        self.stats.divergences = 1;
        Err(ReplicationError::Divergence { seq: self.seq, leader, follower })
    }

    /// Lifetime counters.
    pub fn stats(&self) -> ReplicationStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::hash::fnv1a;

    /// A toy replicated state machine: an append-only string.
    #[derive(Default)]
    struct Tape(String);

    impl Replica for Tape {
        fn apply_event(&mut self, tag: &str, payload: &str) {
            self.0.push_str(tag);
            self.0.push(':');
            self.0.push_str(payload);
            self.0.push(';');
        }
        fn state_hash(&self) -> u64 {
            fnv1a(self.0.as_bytes())
        }
    }

    #[test]
    fn identical_machines_never_diverge() {
        let mut leader = Tape::default();
        let mut follower = Tape::default();
        let mut ch = Replicator::new(2);
        for i in 0..10 {
            let payload = format!("{i}");
            leader.apply_event("e", &payload);
            ch.replicate(&mut follower, "e", &payload, || leader.state_hash()).unwrap();
        }
        let stats = ch.stats();
        assert_eq!(stats.frames, 10);
        assert_eq!(stats.hash_checks, 5, "every second frame checks");
        assert_eq!(stats.divergences, 0);
        ch.check(&follower, leader.state_hash()).unwrap();
    }

    #[test]
    fn injected_divergence_is_detected_within_the_cadence() {
        let mut leader = Tape::default();
        let mut follower = Tape::default();
        let mut ch = Replicator::new(4);
        for i in 0..4 {
            let payload = format!("{i}");
            leader.apply_event("e", &payload);
            ch.replicate(&mut follower, "e", &payload, || leader.state_hash()).unwrap();
        }
        // Corrupt the replica between frames.
        follower.0.push('X');
        let mut caught = None;
        for i in 4..8 {
            let payload = format!("{i}");
            leader.apply_event("e", &payload);
            if let Err(e) = ch.replicate(&mut follower, "e", &payload, || leader.state_hash()) {
                caught = Some(e);
            }
        }
        let err = caught.expect("divergence detected within one cadence window");
        assert!(matches!(err, ReplicationError::Divergence { seq: 8, .. }));
        assert_eq!(ch.stats().divergences, 1, "sticky: counted once");
        assert!(err.to_string().contains("diverged at frame 8"));
    }

    #[test]
    fn forced_check_catches_divergence_immediately() {
        let leader = Tape(String::from("a;"));
        let follower = Tape(String::from("b;"));
        let mut ch = Replicator::new(0);
        assert!(ch.check(&follower, leader.state_hash()).is_err());
        assert_eq!(ch.stats().hash_checks, 1);
    }
}
