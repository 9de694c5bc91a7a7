//! Clocks: one trait and its wall-clock implementation.
//!
//! The executor and the Application Controller read wall-clock time
//! through [`Clock`]; the monitors, group managers and the deterministic
//! experiments take logical times as arguments instead.

use std::time::Instant;

/// A monotonic clock measured in seconds since an arbitrary epoch.
pub trait Clock: Send + Sync {
    /// Current time in seconds.
    fn now(&self) -> f64;
}

/// Wall-clock time (monotonic, from process start).
#[derive(Debug, Clone)]
pub struct RealClock {
    start: Instant,
}

impl RealClock {
    /// A clock whose epoch is now.
    pub fn new() -> Self {
        RealClock { start: Instant::now() }
    }
}

impl Default for RealClock {
    fn default() -> Self {
        Self::new()
    }
}

impl Clock for RealClock {
    fn now(&self) -> f64 {
        self.start.elapsed().as_secs_f64()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn real_clock_is_monotonic_nondecreasing() {
        let c = RealClock::new();
        let a = c.now();
        let b = c.now();
        assert!(b >= a);
    }

    #[test]
    fn clock_trait_objects_work() {
        let c: Box<dyn Clock> = Box::new(RealClock::new());
        assert!(c.now() >= 0.0);
    }
}
