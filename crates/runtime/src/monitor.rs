//! The Monitor daemon (§4.1, Figure 4).
//!
//! > "The Monitor daemon periodically measures the up-to-date resource
//! > parameters, i.e., CPU load and memory availability and sends the
//! > values to the Group Manager."
//!
//! Measurement is behind the [`LoadProbe`] trait: [`SyntheticProbe`]
//! replays injected load traces deterministically (used by tests and the
//! Figure-4 experiments). The caller drives a daemon with
//! [`MonitorDaemon::tick`] at each logical time, handing it the probe to
//! measure through, and passes the report it returns to the Group
//! Manager.

use crate::events::{EventLog, RuntimeEvent};
use std::collections::BTreeMap;

/// One measurement of a host.
#[derive(Debug, Clone, PartialEq)]
pub struct MonitorReport {
    /// Measured host.
    pub host: String,
    /// CPU workload (runnable-process count, load-average style).
    pub workload: f64,
    /// Available memory in bytes.
    pub available_memory: u64,
}

/// Source of load/memory measurements.
pub trait LoadProbe {
    /// Measure `host` now.
    fn sample(&self, host: &str) -> (f64, u64);
}

/// Deterministic probe driven by per-host step traces.
///
/// A trace is a list of `(from_time, workload)` steps; [`sample`] returns
/// the workload of the last step at or before the probe's current time
/// (advance it with [`SyntheticProbe::set_time`]). Hosts without a trace
/// report the default load.
///
/// [`sample`]: LoadProbe::sample
#[derive(Debug, Default)]
pub struct SyntheticProbe {
    traces: BTreeMap<String, Vec<(f64, f64)>>,
    time: f64,
    default_load: f64,
    default_memory: u64,
}

/// The workload of the last step in `steps` at or before `t`; `default`
/// before the first.
fn step_at(steps: &[(f64, f64)], t: f64, default: f64) -> f64 {
    steps.iter().take_while(|(from, _)| *from <= t).last().map_or(default, |(_, l)| *l)
}

impl SyntheticProbe {
    /// Probe reporting `load` / `memory` for every host until traced.
    pub fn new(load: f64, memory: u64) -> Self {
        SyntheticProbe { default_load: load, default_memory: memory, ..Self::default() }
    }

    /// Install a step trace for one host.
    pub fn set_trace(&mut self, host: impl Into<String>, steps: Vec<(f64, f64)>) {
        self.traces.insert(host.into(), steps);
    }

    /// Advance (or set) the probe's notion of time.
    pub fn set_time(&mut self, t: f64) {
        self.time = t;
    }

    /// Overlay a load spike of `height` on `host` for
    /// `[at, at + duration)`, on top of whatever trace (or default load)
    /// the host already has. Used by the fault-injection harness.
    pub fn add_spike(&mut self, host: impl Into<String>, at: f64, height: f64, duration: f64) {
        let default = self.default_load;
        let steps = self.traces.entry(host.into()).or_default();
        let end = at + duration;
        let start_level = step_at(steps, at, default) + height;
        let end_level = step_at(steps, end, default);
        for s in steps.iter_mut() {
            if s.0 > at && s.0 < end {
                s.1 += height;
            }
        }
        steps.retain(|(from, _)| *from != at && *from != end);
        steps.push((at, start_level));
        steps.push((end, end_level));
        steps.sort_by(|a, b| a.0.total_cmp(&b.0));
    }
}

impl LoadProbe for SyntheticProbe {
    fn sample(&self, host: &str) -> (f64, u64) {
        let steps = self.traces.get(host).map_or(&[][..], Vec::as_slice);
        (step_at(steps, self.time, self.default_load), self.default_memory)
    }
}

/// The per-host Monitor daemon.
pub struct MonitorDaemon {
    /// The monitored host.
    pub host: String,
    log: EventLog,
}

impl MonitorDaemon {
    /// Daemon for `host`.
    pub fn new(host: impl Into<String>, log: EventLog) -> Self {
        MonitorDaemon { host: host.into(), log }
    }

    /// Take one measurement through `probe` at logical time `t`: the
    /// report for the Group Manager. A NaN or infinite workload is no
    /// measurement and is dropped here, before it reaches the event log
    /// or the journal (JSON spells neither).
    pub fn tick(&self, t: f64, probe: &impl LoadProbe) -> Option<MonitorReport> {
        let (workload, available_memory) = probe.sample(&self.host);
        if !workload.is_finite() {
            return None;
        }
        self.log.emit(t, RuntimeEvent::MonitorSample { host: self.host.clone(), workload });
        Some(MonitorReport { host: self.host.clone(), workload, available_memory })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn synthetic_probe_follows_step_trace() {
        let mut p = SyntheticProbe::new(0.5, 1 << 20);
        p.set_trace("h", vec![(0.0, 1.0), (10.0, 4.0)]);
        p.set_time(5.0);
        assert_eq!(p.sample("h").0, 1.0);
        p.set_time(10.0);
        assert_eq!(p.sample("h").0, 4.0);
        // Untraced host gets the default.
        assert_eq!(p.sample("other").0, 0.5);
    }

    #[test]
    fn synthetic_probe_before_first_step_uses_default() {
        let mut p = SyntheticProbe::new(0.25, 1);
        p.set_trace("h", vec![(5.0, 9.0)]);
        p.set_time(1.0);
        assert_eq!(p.sample("h").0, 0.25);
    }

    #[test]
    fn spike_overlays_default_load() {
        let mut p = SyntheticProbe::new(1.0, 1);
        p.add_spike("h", 10.0, 5.0, 20.0);
        p.set_time(5.0);
        assert_eq!(p.sample("h").0, 1.0, "before the spike");
        p.set_time(10.0);
        assert_eq!(p.sample("h").0, 6.0, "during the spike");
        p.set_time(29.9);
        assert_eq!(p.sample("h").0, 6.0, "still during the spike");
        p.set_time(30.0);
        assert_eq!(p.sample("h").0, 1.0, "after the spike");
    }

    #[test]
    fn spike_overlays_existing_trace_steps() {
        let mut p = SyntheticProbe::new(0.0, 1);
        p.set_trace("h", vec![(0.0, 1.0), (15.0, 2.0)]);
        p.add_spike("h", 10.0, 4.0, 10.0);
        p.set_time(12.0);
        assert_eq!(p.sample("h").0, 5.0, "spike on the 1.0 base");
        p.set_time(16.0);
        assert_eq!(p.sample("h").0, 6.0, "mid-spike trace step is raised too");
        p.set_time(20.0);
        assert_eq!(p.sample("h").0, 2.0, "back to the underlying trace");
    }

    #[test]
    fn daemon_tick_sends_report_and_logs() {
        let probe = SyntheticProbe::new(2.0, 77);
        let log = EventLog::new();
        let d = MonitorDaemon::new("h0", log.clone());
        let r = d.tick(1.5, &probe);
        assert_eq!(
            r,
            Some(MonitorReport { host: "h0".into(), workload: 2.0, available_memory: 77 })
        );
        assert_eq!(
            log.snapshot(),
            vec![(1.5, RuntimeEvent::MonitorSample { host: "h0".into(), workload: 2.0 })]
        );
    }
}
