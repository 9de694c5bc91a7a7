//! The fault-injection plan DSL.
//!
//! A [`FaultPlan`] is a seeded, serializable description of everything
//! that goes wrong during a run: host crashes, transient outages, load
//! spikes, degraded links and flaky links. Plans are *data* — they can be
//! stored next to a scenario, replayed bit-identically (all randomness
//! derives from `seed`), and diffed when a regression gate trips.
//!
//! The replay engine ([`crate::replay`]) consumes a plan in two forms:
//! load spikes are baked into the monitoring probe's traces up front
//! (they are continuous phenomena), while everything else is expanded
//! into a sorted [`TimedFaultEvent`] stream via [`FaultPlan::timeline`]
//! and applied tick by tick to the echo probe and link probe — the same
//! event streams the real monitor / net-monitor daemons watch.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use serde::{Deserialize, Serialize};

/// Latency multiplier a flaky link jumps to while dropping traffic.
pub(crate) const FLAKY_LATENCY_FACTOR: f64 = 50.0;
/// Bandwidth multiplier a flaky link falls to while dropping traffic.
pub(crate) const FLAKY_BANDWIDTH_FACTOR: f64 = 0.02;

/// One injected fault.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub enum Fault {
    /// Permanent host crash: the host stops answering echoes at `at` and
    /// never comes back.
    HostCrash {
        /// Host name.
        host: String,
        /// Virtual time of the crash, seconds.
        at: f64,
    },
    /// Transient outage: down at `at`, answering again at
    /// `at + down_for`.
    TransientOutage {
        /// Host name.
        host: String,
        /// Virtual time the outage starts.
        at: f64,
        /// Outage length, seconds.
        down_for: f64,
    },
    /// A load spike of `height` on top of the host's base load for
    /// `[at, at + duration)`.
    LoadSpike {
        /// Host name.
        host: String,
        /// Virtual time the spike starts.
        at: f64,
        /// Added workload.
        height: f64,
        /// Spike length, seconds.
        duration: f64,
    },
    /// Degraded link between two sites for a window: latency multiplied
    /// by `latency_factor`, bandwidth by `bandwidth_factor`.
    DegradedLink {
        /// One endpoint site.
        a: u16,
        /// Other endpoint site.
        b: u16,
        /// Virtual time the degradation starts.
        at: f64,
        /// Window length, seconds.
        duration: f64,
        /// Multiplier on the pristine latency (≥ 1 degrades).
        latency_factor: f64,
        /// Multiplier on the pristine bandwidth (≤ 1 degrades).
        bandwidth_factor: f64,
    },
    /// Flaky link: during `[at, at + duration)` the link drops to
    /// `FLAKY_LATENCY_FACTOR`/`FLAKY_BANDWIDTH_FACTOR` with
    /// probability `drop_probability` per replay tick, seeded from the
    /// plan seed — deterministic across replays.
    FlakyLink {
        /// One endpoint site.
        a: u16,
        /// Other endpoint site.
        b: u16,
        /// Virtual time the flaky window starts.
        at: f64,
        /// Window length, seconds.
        duration: f64,
        /// Per-tick probability the link is dropping.
        drop_probability: f64,
    },
    /// Whole-site outage: every host of the site (Site Manager included)
    /// stops answering at `at` and the site falls off the WAN. With
    /// `down_for: None` the site never comes back (a site crash);
    /// otherwise it rejoins at `at + down_for`.
    SiteOutage {
        /// The site that goes dark.
        site: u16,
        /// Virtual time the outage starts.
        at: f64,
        /// Outage length; `None` means permanent.
        down_for: Option<f64>,
    },
    /// Inter-site network partition: every link between the `a`-side
    /// sites and the `b`-side sites is severed during
    /// `[at, at + duration)`. Hosts keep running on both sides; only
    /// cross-partition traffic is cut, and the partition heals on its
    /// own.
    SitePartition {
        /// Sites on one side of the cut.
        a: Vec<u16>,
        /// Sites on the other side.
        b: Vec<u16>,
        /// Virtual time the partition starts.
        at: f64,
        /// Partition length, seconds.
        duration: f64,
    },
}

impl Fault {
    /// Injection time of this fault.
    pub(crate) fn at(&self) -> f64 {
        match self {
            Fault::HostCrash { at, .. }
            | Fault::TransientOutage { at, .. }
            | Fault::LoadSpike { at, .. }
            | Fault::DegradedLink { at, .. }
            | Fault::FlakyLink { at, .. }
            | Fault::SiteOutage { at, .. }
            | Fault::SitePartition { at, .. } => *at,
        }
    }

    /// The length of this fault's active window (`down_for` or
    /// `duration`); `None` for a fault without one, a permanent crash or
    /// site outage.
    pub(crate) fn window_mut(&mut self) -> Option<&mut f64> {
        match self {
            Fault::TransientOutage { down_for, .. }
            | Fault::SiteOutage { down_for: Some(down_for), .. } => Some(down_for),
            Fault::LoadSpike { duration, .. }
            | Fault::DegradedLink { duration, .. }
            | Fault::FlakyLink { duration, .. }
            | Fault::SitePartition { duration, .. } => Some(duration),
            Fault::HostCrash { .. } | Fault::SiteOutage { down_for: None, .. } => None,
        }
    }

    /// Is this fault transient, i.e. guaranteed to clear on its own?
    /// Everything except a permanent [`Fault::HostCrash`] and a
    /// permanent [`Fault::SiteOutage`] (`down_for: None`) is.
    pub fn is_transient(&self) -> bool {
        !matches!(self, Fault::HostCrash { .. } | Fault::SiteOutage { down_for: None, .. })
    }

    /// Short stable label used in reports (`crash:s0h1.vdce.org`, …).
    pub(crate) fn label(&self) -> String {
        match self {
            Fault::HostCrash { host, .. } => format!("crash:{host}"),
            Fault::TransientOutage { host, .. } => format!("outage:{host}"),
            Fault::LoadSpike { host, .. } => format!("spike:{host}"),
            Fault::DegradedLink { a, b, .. } => format!("degraded-link:{a}-{b}"),
            Fault::FlakyLink { a, b, .. } => format!("flaky-link:{a}-{b}"),
            Fault::SiteOutage { site, .. } => format!("site-outage:S{site}"),
            Fault::SitePartition { a, b, .. } => {
                let fmt = |g: &[u16]| g.iter().map(|s| s.to_string()).collect::<Vec<_>>().join("+");
                format!("partition:{}|{}", fmt(a), fmt(b))
            }
        }
    }
}

/// A seeded, serializable set of faults.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FaultPlan {
    /// Seed for every random expansion in the plan (flaky links).
    pub seed: u64,
    /// The faults, in any order.
    pub faults: Vec<Fault>,
}

/// One expanded, timed event of a plan.
#[derive(Debug, Clone, PartialEq)]
pub(crate) struct TimedFaultEvent {
    /// Virtual time to apply the event.
    pub t: f64,
    /// Index of the fault (into [`FaultPlan::faults`]) this event
    /// belongs to.
    pub fault: usize,
    /// What to do.
    pub event: FaultEvent,
}

/// The primitive state changes faults expand into.
#[derive(Debug, Clone, PartialEq)]
pub(crate) enum FaultEvent {
    /// Host stops answering echoes.
    HostDown {
        /// Host name.
        host: String,
    },
    /// Host answers echoes again.
    HostUp {
        /// Host name.
        host: String,
    },
    /// Link between two sites degrades by the given factors (relative to
    /// its pristine parameters).
    LinkDegrade {
        /// One endpoint site.
        a: u16,
        /// Other endpoint site.
        b: u16,
        /// Latency multiplier.
        latency_factor: f64,
        /// Bandwidth multiplier.
        bandwidth_factor: f64,
    },
    /// Link between two sites returns to its pristine parameters.
    LinkRestore {
        /// One endpoint site.
        a: u16,
        /// Other endpoint site.
        b: u16,
    },
    /// Every host of the site goes dark and the site drops off the WAN.
    /// The replay expands this into per-host kills plus link severing
    /// using its topology (the plan itself is topology-free).
    SiteDown {
        /// The site.
        site: u16,
    },
    /// The site's hosts answer again and its links are restored.
    SiteUp {
        /// The site.
        site: u16,
    },
    /// All links between the `a`-side and `b`-side sites are severed.
    PartitionStart {
        /// Sites on one side.
        a: Vec<u16>,
        /// Sites on the other side.
        b: Vec<u16>,
    },
    /// The partition heals: the severed cross-links come back.
    PartitionHeal {
        /// Sites on one side.
        a: Vec<u16>,
        /// Sites on the other side.
        b: Vec<u16>,
    },
}

/// Parameters of a Weibull-distributed transient-outage arrival process
/// (the classic empirical fit for machine availability in shared
/// networks: `shape < 1` models infant-mortality bursts, `shape > 1`
/// wear-out clustering). Serializable so long-trace churn scenarios can
/// be stored and diffed next to their plans.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub(crate) struct WeibullArrivalSpec {
    /// Weibull shape parameter `k` (> 0).
    pub shape: f64,
    /// Weibull scale parameter `λ` in virtual seconds (> 0).
    pub scale: f64,
    /// Stop generating once an arrival would land past this time.
    pub horizon: f64,
    /// Outage length of each generated fault, virtual seconds.
    pub down_for: f64,
    /// Hard cap on the number of generated faults.
    pub(crate) max_faults: usize,
}

impl FaultPlan {
    /// Plan with no faults.
    pub(crate) fn empty() -> Self {
        FaultPlan { seed: 0, faults: Vec::new() }
    }

    /// Generate a churn plan whose outage inter-arrival times are
    /// Weibull-distributed: `Δ = λ·(−ln(1−u))^(1/k)` (inverse-CDF
    /// sampling), with victims drawn round-robin-with-jitter from
    /// `hosts`. Pure function of `(seed, hosts, spec)` — the returned
    /// plan replays bit-identically.
    pub(crate) fn weibull_arrivals(seed: u64, hosts: &[String], spec: &WeibullArrivalSpec) -> Self {
        assert!(spec.shape > 0.0 && spec.scale > 0.0, "Weibull parameters must be positive");
        let mut rng = StdRng::seed_from_u64(seed);
        let mut faults = Vec::new();
        let mut t = 0.0f64;
        while faults.len() < spec.max_faults && !hosts.is_empty() {
            let u: f64 = rng.gen_range(0.0..1.0);
            t += spec.scale * (-(1.0 - u).ln()).powf(1.0 / spec.shape);
            if t > spec.horizon {
                break;
            }
            let host = hosts[rng.gen_range(0..hosts.len())].clone();
            faults.push(Fault::TransientOutage { host, at: t, down_for: spec.down_for });
        }
        FaultPlan { seed, faults }
    }

    /// True when every fault clears on its own (no permanent crashes) —
    /// the precondition of the full-recovery property test.
    pub(crate) fn is_all_transient(&self) -> bool {
        self.faults.iter().all(Fault::is_transient)
    }

    /// Expand the plan into a timed event stream for a replay with the
    /// given tick length. Flaky links are sampled per tick with an RNG
    /// derived from the plan seed and the fault index, so the expansion
    /// is a pure function of `(plan, tick)`. Load spikes produce no
    /// events — the replay bakes them into the monitoring probe.
    /// Events are sorted by `(t, fault index)`.
    pub(crate) fn timeline(&self, tick: f64) -> Vec<TimedFaultEvent> {
        assert!(tick > 0.0, "tick must be positive");
        let mut out = Vec::new();
        for (i, fault) in self.faults.iter().enumerate() {
            match fault {
                Fault::HostCrash { host, at } => {
                    out.push(TimedFaultEvent {
                        t: *at,
                        fault: i,
                        event: FaultEvent::HostDown { host: host.clone() },
                    });
                }
                Fault::TransientOutage { host, at, down_for } => {
                    out.push(TimedFaultEvent {
                        t: *at,
                        fault: i,
                        event: FaultEvent::HostDown { host: host.clone() },
                    });
                    out.push(TimedFaultEvent {
                        t: at + down_for,
                        fault: i,
                        event: FaultEvent::HostUp { host: host.clone() },
                    });
                }
                Fault::LoadSpike { .. } => {}
                Fault::DegradedLink { a, b, at, duration, latency_factor, bandwidth_factor } => {
                    out.push(TimedFaultEvent {
                        t: *at,
                        fault: i,
                        event: FaultEvent::LinkDegrade {
                            a: *a,
                            b: *b,
                            latency_factor: *latency_factor,
                            bandwidth_factor: *bandwidth_factor,
                        },
                    });
                    out.push(TimedFaultEvent {
                        t: at + duration,
                        fault: i,
                        event: FaultEvent::LinkRestore { a: *a, b: *b },
                    });
                }
                Fault::FlakyLink { a, b, at, duration, drop_probability } => {
                    let mut rng = StdRng::seed_from_u64(
                        self.seed ^ (i as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15),
                    );
                    let mut down = false;
                    let mut t = *at;
                    while t < at + duration {
                        let drop: f64 = rng.gen_range(0.0..1.0);
                        let want_down = drop < *drop_probability;
                        if want_down != down {
                            down = want_down;
                            out.push(TimedFaultEvent {
                                t,
                                fault: i,
                                event: if down {
                                    FaultEvent::LinkDegrade {
                                        a: *a,
                                        b: *b,
                                        latency_factor: FLAKY_LATENCY_FACTOR,
                                        bandwidth_factor: FLAKY_BANDWIDTH_FACTOR,
                                    }
                                } else {
                                    FaultEvent::LinkRestore { a: *a, b: *b }
                                },
                            });
                        }
                        t += tick;
                    }
                    if down {
                        out.push(TimedFaultEvent {
                            t: at + duration,
                            fault: i,
                            event: FaultEvent::LinkRestore { a: *a, b: *b },
                        });
                    }
                }
                Fault::SiteOutage { site, at, down_for } => {
                    out.push(TimedFaultEvent {
                        t: *at,
                        fault: i,
                        event: FaultEvent::SiteDown { site: *site },
                    });
                    if let Some(d) = down_for {
                        out.push(TimedFaultEvent {
                            t: at + d,
                            fault: i,
                            event: FaultEvent::SiteUp { site: *site },
                        });
                    }
                }
                Fault::SitePartition { a, b, at, duration } => {
                    out.push(TimedFaultEvent {
                        t: *at,
                        fault: i,
                        event: FaultEvent::PartitionStart { a: a.clone(), b: b.clone() },
                    });
                    out.push(TimedFaultEvent {
                        t: at + duration,
                        fault: i,
                        event: FaultEvent::PartitionHeal { a: a.clone(), b: b.clone() },
                    });
                }
            }
        }
        out.sort_by(|x, y| {
            x.t.partial_cmp(&y.t).expect("finite fault times").then(x.fault.cmp(&y.fault))
        });
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_plan() -> FaultPlan {
        FaultPlan {
            seed: 99,
            faults: vec![
                Fault::HostCrash { host: "h0".into(), at: 10.0 },
                Fault::TransientOutage { host: "h1".into(), at: 5.0, down_for: 7.0 },
                Fault::LoadSpike { host: "h2".into(), at: 3.0, height: 6.0, duration: 9.0 },
                Fault::DegradedLink {
                    a: 0,
                    b: 1,
                    at: 2.0,
                    duration: 8.0,
                    latency_factor: 10.0,
                    bandwidth_factor: 0.1,
                },
                Fault::FlakyLink { a: 1, b: 2, at: 0.0, duration: 30.0, drop_probability: 0.4 },
                Fault::SiteOutage { site: 2, at: 12.0, down_for: Some(6.0) },
                Fault::SitePartition { a: vec![0], b: vec![1, 2], at: 15.0, duration: 10.0 },
            ],
        }
    }

    #[test]
    fn plan_serialises_and_round_trips() {
        let plan = sample_plan();
        let json = serde_json::to_string(&plan).unwrap();
        let back: FaultPlan = serde_json::from_str(&json).unwrap();
        assert_eq!(back, plan);
    }

    /// Every fault with an end exposes the window that ends it, so the
    /// shrinker's window halving reaches every kind of fault.
    #[test]
    fn every_fault_with_an_end_exposes_its_window() {
        let mut plan = sample_plan();
        plan.faults.push(Fault::SiteOutage { site: 0, at: 1.0, down_for: None });
        let windows: Vec<Option<f64>> =
            plan.faults.iter_mut().map(|f| f.window_mut().copied()).collect();
        let want = [None, Some(7.0), Some(9.0), Some(8.0), Some(30.0), Some(6.0), Some(10.0), None];
        assert_eq!(windows, want);
    }

    #[test]
    fn timeline_is_deterministic_and_sorted() {
        let plan = sample_plan();
        let a = plan.timeline(1.0);
        let b = plan.timeline(1.0);
        assert_eq!(a, b, "same plan + tick → identical expansion");
        assert!(a.windows(2).all(|w| w[0].t <= w[1].t), "sorted by time");
        assert!(!a.is_empty());
    }

    #[test]
    fn timeline_depends_on_seed_via_flaky_links() {
        let plan = sample_plan();
        let other = FaultPlan { seed: 100, ..plan.clone() };
        assert_ne!(plan.timeline(1.0), other.timeline(1.0));
    }

    #[test]
    fn crash_and_outage_expand_to_down_up() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![
                Fault::HostCrash { host: "x".into(), at: 4.0 },
                Fault::TransientOutage { host: "y".into(), at: 1.0, down_for: 2.0 },
            ],
        };
        let tl = plan.timeline(1.0);
        assert_eq!(tl.len(), 3);
        assert_eq!(tl[0].event, FaultEvent::HostDown { host: "y".into() });
        assert_eq!(tl[1].event, FaultEvent::HostUp { host: "y".into() });
        assert_eq!(tl[1].t, 3.0);
        assert_eq!(tl[2].event, FaultEvent::HostDown { host: "x".into() });
    }

    #[test]
    fn flaky_link_always_restores_by_window_end() {
        let plan = FaultPlan {
            seed: 5,
            faults: vec![Fault::FlakyLink {
                a: 0,
                b: 1,
                at: 0.0,
                duration: 20.0,
                drop_probability: 0.9,
            }],
        };
        let tl = plan.timeline(1.0);
        let degrades =
            tl.iter().filter(|e| matches!(e.event, FaultEvent::LinkDegrade { .. })).count();
        let restores =
            tl.iter().filter(|e| matches!(e.event, FaultEvent::LinkRestore { .. })).count();
        assert!(degrades > 0, "p=0.9 over 20 ticks must drop at least once");
        assert_eq!(degrades, restores, "every drop eventually restores");
        assert!(tl.last().unwrap().t <= 20.0);
    }

    #[test]
    fn transience_classification() {
        assert!(!Fault::HostCrash { host: "h".into(), at: 0.0 }.is_transient());
        assert!(Fault::TransientOutage { host: "h".into(), at: 0.0, down_for: 1.0 }.is_transient());
        let mut plan = sample_plan();
        assert!(!plan.is_all_transient());
        plan.faults.retain(Fault::is_transient);
        assert!(plan.is_all_transient());
        assert!(FaultPlan::empty().is_all_transient());
    }

    fn churn_spec() -> WeibullArrivalSpec {
        WeibullArrivalSpec {
            shape: 0.7,
            scale: 12.0,
            horizon: 200.0,
            down_for: 5.0,
            max_faults: 50,
        }
    }

    #[test]
    fn weibull_arrivals_are_deterministic_in_seed() {
        let hosts = vec!["a".to_string(), "b".to_string(), "c".to_string()];
        let p1 = FaultPlan::weibull_arrivals(9, &hosts, &churn_spec());
        let p2 = FaultPlan::weibull_arrivals(9, &hosts, &churn_spec());
        let p3 = FaultPlan::weibull_arrivals(10, &hosts, &churn_spec());
        assert_eq!(p1, p2);
        assert_ne!(p1, p3);
        assert!(!p1.faults.is_empty(), "λ=12 over a 200s horizon must produce arrivals");
    }

    #[test]
    fn weibull_arrivals_are_monotone_transient_and_bounded() {
        let hosts = vec!["a".to_string(), "b".to_string()];
        let spec = churn_spec();
        let plan = FaultPlan::weibull_arrivals(3, &hosts, &spec);
        assert!(plan.is_all_transient());
        assert!(plan.faults.len() <= spec.max_faults);
        let times: Vec<f64> = plan.faults.iter().map(Fault::at).collect();
        assert!(times.windows(2).all(|w| w[0] <= w[1]), "arrival times increase");
        assert!(times.iter().all(|t| *t > 0.0 && *t <= spec.horizon));
        let capped =
            FaultPlan::weibull_arrivals(3, &hosts, &WeibullArrivalSpec { max_faults: 2, ..spec });
        assert!(capped.faults.len() <= 2);
    }

    #[test]
    fn weibull_spec_round_trips_through_serde() {
        let spec = churn_spec();
        let json = serde_json::to_string(&spec).unwrap();
        let back: WeibullArrivalSpec = serde_json::from_str(&json).unwrap();
        assert_eq!(back, spec);
        // And a generated plan round-trips like any other plan.
        let hosts = vec!["x".to_string()];
        let plan = FaultPlan::weibull_arrivals(1, &hosts, &spec);
        let back: FaultPlan = serde_json::from_str(&serde_json::to_string(&plan).unwrap()).unwrap();
        assert_eq!(back, plan);
    }

    #[test]
    fn labels_are_stable() {
        let plan = sample_plan();
        let labels: Vec<String> = plan.faults.iter().map(Fault::label).collect();
        assert_eq!(
            labels,
            vec![
                "crash:h0",
                "outage:h1",
                "spike:h2",
                "degraded-link:0-1",
                "flaky-link:1-2",
                "site-outage:S2",
                "partition:0|1+2"
            ]
        );
    }

    #[test]
    fn site_outage_expands_to_down_and_optional_up() {
        let transient = FaultPlan {
            seed: 0,
            faults: vec![Fault::SiteOutage { site: 1, at: 4.0, down_for: Some(3.0) }],
        };
        let tl = transient.timeline(1.0);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].event, FaultEvent::SiteDown { site: 1 });
        assert_eq!(tl[1].event, FaultEvent::SiteUp { site: 1 });
        assert_eq!(tl[1].t, 7.0);

        let permanent = FaultPlan {
            seed: 0,
            faults: vec![Fault::SiteOutage { site: 1, at: 4.0, down_for: None }],
        };
        let tl = permanent.timeline(1.0);
        assert_eq!(tl.len(), 1, "a permanent site crash never comes back up");
        assert_eq!(tl[0].event, FaultEvent::SiteDown { site: 1 });
    }

    #[test]
    fn partition_expands_to_start_and_heal() {
        let plan = FaultPlan {
            seed: 0,
            faults: vec![Fault::SitePartition {
                a: vec![0, 1],
                b: vec![2],
                at: 2.0,
                duration: 5.0,
            }],
        };
        let tl = plan.timeline(1.0);
        assert_eq!(tl.len(), 2);
        assert_eq!(tl[0].event, FaultEvent::PartitionStart { a: vec![0, 1], b: vec![2] });
        assert_eq!(tl[1].event, FaultEvent::PartitionHeal { a: vec![0, 1], b: vec![2] });
        assert_eq!(tl[1].t, 7.0);
    }

    #[test]
    fn site_fault_transience() {
        assert!(!Fault::SiteOutage { site: 0, at: 0.0, down_for: None }.is_transient());
        assert!(Fault::SiteOutage { site: 0, at: 0.0, down_for: Some(1.0) }.is_transient());
        assert!(
            Fault::SitePartition { a: vec![0], b: vec![1], at: 0.0, duration: 1.0 }.is_transient()
        );
    }
}
