//! `durable_faults`: the durable control plane and nothing of the scheduler
//! hot path. An op is one sweep over the 17 named fault scenarios: each is
//! replayed with write-ahead journaling, snapshots and deputy replication on
//! (`replay_durable`), paired with the plain `replay` for the overhead ratio,
//! then killed and recovered (`verify_kill`) at four cut points — three of
//! them mid-write, with a torn tail. Journal encode/append, JSON
//! `state_hash`, snapshots, deputy checks and WAL recovery carry the time.

use super::Workload;
use super::{best_of, timed, LayerValues, OpRecorder, PassOutcome, Scale, SetupTimes, SplitMix};
use crate::layers;
use crate::trace::Tracer;
use vdce_runtime::DurableOptions;
use vdce_sim::replay::ReplayOutcome;
use vdce_sim::scenario::FaultScenario;

const OPS_PER_PASS: usize = 2;
/// Kill points as shares of a scenario's journal; each but the last is
/// jittered by the seed and leaves a torn tail.
const CUTS: [f64; 4] = [0.25, 0.50, 0.75, 1.0];
/// Records the on-disk WAL side measurement appends, one fsync each.
const FILE_WAL_RECORDS: usize = 64;

/// See the module docs.
pub struct DurableFaults {
    scenarios: Vec<FaultScenario>,
    /// Per scenario, per cut: jitter in `[-0.05, 0.05)` and the torn-tail seed.
    kills: Vec<[(f64, u64); 4]>,
    /// The latest traced sweep, kept for the side measurements over its journals.
    last_traced: Option<Sweep>,
    times: SetupTimes,
}

/// What one sweep produced, checked after its timed region.
struct Sweep {
    durable: Vec<ReplayOutcome>,
    plain: Vec<ReplayOutcome>,
    journals: Vec<DurableOptions>,
    kill_errors: Vec<String>,
    replayed_records: u64,
    replication: (u64, u64, u64),
    /// Σ durable, Σ plain, Σ kill-and-recover seconds (traced sweeps only).
    seconds: (f64, f64, f64),
}

impl DurableFaults {
    /// The scenarios are named fixtures; the seed picks each flaky link's
    /// drop pattern and where and how each journal is cut.
    pub fn setup(seed: u64, scale: Scale) -> Self {
        let (mut scenarios, gen_s) = timed(layers::fault_scenarios);
        if matches!(scale, Scale::Small) {
            scenarios.truncate(3);
        }
        let mut rng = SplitMix(seed ^ 0xd07a);
        for fs in &mut scenarios {
            fs.plan.seed ^= rng.next();
        }
        let kills = scenarios
            .iter()
            .map(|_| CUTS.map(|_| ((rng.below(1000) as f64 / 1000.0 - 0.5) * 0.1, rng.next() | 1)))
            .collect();
        DurableFaults {
            scenarios,
            kills,
            last_traced: None,
            times: SetupTimes { dag_gen_s: gen_s, pool_gen_s: 0.0, arrivals_s: 0.0 },
        }
    }

    /// Kill points of scenario `i` for a journal of `total` records.
    fn cuts(&self, i: usize, total: u64) -> [(u64, u64); 4] {
        let mut out = [(0, 0); 4];
        for (k, (&share, &(jitter, torn))) in CUTS.iter().zip(&self.kills[i]).enumerate() {
            out[k] = if share >= 1.0 {
                (total, 0)
            } else {
                let cut = ((share + jitter) * total as f64) as u64;
                (cut.min(total.saturating_sub(1)), torn)
            };
        }
        out
    }

    /// One sweep. With a tracer, every library call gets a span.
    fn sweep(&self, mut tr: Option<&mut Tracer>) -> Sweep {
        let n = self.scenarios.len();
        let mut out = Sweep {
            durable: Vec::with_capacity(n),
            plain: Vec::with_capacity(n),
            journals: Vec::with_capacity(n),
            kill_errors: Vec::new(),
            replayed_records: 0,
            replication: (0, 0, 0),
            seconds: (0.0, 0.0, 0.0),
        };
        for (i, fs) in self.scenarios.iter().enumerate() {
            let obs = layers::observer_disabled();
            let opts = layers::durable_options();
            let (durable, d_s) = spanned(&mut tr, "sim.replay.durable", || {
                layers::replay_journaled(fs, &obs, &opts)
            });
            let (plain, p_s) = spanned(&mut tr, "sim.replay.plain", || layers::replay_plain(fs));
            out.seconds.0 += d_s;
            out.seconds.1 += p_s;
            for (cut, torn) in self.cuts(i, opts.journal.len()) {
                let (killed, k_s) = spanned(&mut tr, "sim.recovery.verify_kill", || {
                    layers::kill_and_recover(&opts.journal, cut, torn)
                });
                out.seconds.2 += k_s;
                match killed {
                    Ok(k) => {
                        out.replayed_records += k.replayed;
                        if let Some(tr) = tr.as_deref_mut() {
                            tr.count("replayed", k.replayed as f64);
                        }
                    }
                    Err(e) => out.kill_errors.push(format!("{}: {e}", fs.name)),
                }
            }
            let (frames, checks, divergences) = layers::replication_counters(&obs);
            out.replication.0 += frames;
            out.replication.1 += checks;
            out.replication.2 += divergences;
            out.durable.push(durable);
            out.plain.push(plain);
            out.journals.push(opts);
        }
        out
    }

    /// Failure lines of one sweep (empty when it is correct).
    fn judge(&self, s: &Sweep) -> Vec<String> {
        let mut failures = s.kill_errors.clone();
        for (fs, (d, p)) in self.scenarios.iter().zip(s.durable.iter().zip(&s.plain)) {
            if d != p {
                failures.push(format!("{}: durable replay perturbed the outcome", fs.name));
            }
        }
        if s.replication.2 != 0 {
            failures.push(format!("{} deputy divergence(s)", s.replication.2));
        }
        failures
    }

    fn digest(s: &Sweep) -> u64 {
        s.durable.iter().zip(&s.journals).fold(s.replayed_records, |h, (o, j)| {
            h.rotate_left(9)
                ^ o.makespan.to_bits()
                ^ o.tasks_completed.rotate_left(48)
                ^ j.journal.len().rotate_left(24)
                ^ layers::journal_stats(&j.journal).wal_bytes_total
        })
    }

    fn outcome(sweeps: &[Sweep], failed: u64) -> PassOutcome {
        PassOutcome {
            digest: sweeps.iter().fold(0, |h, s| h.rotate_left(1) ^ Self::digest(s)),
            offered: sweeps.len() as u64,
            served: sweeps.len() as u64 - failed,
            failed,
        }
    }
}

/// Σ over `items` of the best of three timings of `f`, seconds.
fn sum_best<T, R>(items: &[T], f: impl Fn(&T) -> R) -> f64 {
    items.iter().map(|x| best_of(3, || f(x))).sum()
}

/// Run `f` under a span when tracing; returns its result and seconds.
fn spanned<T>(tr: &mut Option<&mut Tracer>, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
    match tr.as_deref_mut() {
        Some(tr) => timed(|| tr.span(name, f)),
        None => (f(), 0.0),
    }
}

impl Workload for DurableFaults {
    fn input_digest(&self) -> u64 {
        self.scenarios.iter().zip(&self.kills).fold(0, |h, (fs, kills)| {
            kills.iter().fold(h.rotate_left(3) ^ fs.plan.seed, |h, (jitter, torn)| {
                h.rotate_left(11) ^ jitter.to_bits() ^ torn
            })
        })
    }

    fn setup_times(&self) -> SetupTimes {
        self.times
    }

    fn pass(&mut self, rec: &mut OpRecorder) -> PassOutcome {
        let sweeps: Vec<Sweep> = (0..OPS_PER_PASS).map(|_| rec.op(|| self.sweep(None))).collect();
        let failed = sweeps.iter().filter(|s| !self.judge(s).is_empty()).count() as u64;
        Self::outcome(&sweeps, failed)
    }

    fn traced_pass(&mut self, tr: &mut Tracer, values: &mut LayerValues) -> PassOutcome {
        let mut sweeps = Vec::with_capacity(OPS_PER_PASS);
        for _ in 0..OPS_PER_PASS {
            let op = tr.enter("driver.op");
            let sweep = self.sweep(Some(tr));
            tr.exit(op);
            sweeps.push(sweep);
        }
        let failed = sweeps.iter().filter(|s| !self.judge(s).is_empty()).count() as u64;
        let s = sweeps.last().expect("a pass has ops");
        let (durable_s, plain_s, kill_s) = s.seconds;
        let stats: Vec<_> = s.journals.iter().map(|j| layers::journal_stats(&j.journal)).collect();
        let records: u64 = stats.iter().map(|j| j.records).sum();
        let wal_bytes: u64 = stats.iter().map(|j| j.wal_bytes_total).sum();
        let snapshots: u64 = stats.iter().map(|j| j.snapshots).sum();
        let snapshot_bytes: u64 =
            s.journals.iter().map(|j| layers::snapshot_bytes(&j.journal)).sum();
        values.insert("store.journal.records", records as f64);
        values.insert("store.journal.bytes_per_record", wal_bytes as f64 / records.max(1) as f64);
        values.insert("store.journal.snapshots", snapshots as f64);
        values.insert("runtime.durable.snapshot_bytes", snapshot_bytes as f64);
        values.insert("store.journal.bytes_per_op", (wal_bytes + snapshot_bytes) as f64);
        values.insert("store.replication.frames", s.replication.0 as f64);
        values.insert("store.replication.hash_checks", s.replication.1 as f64);
        values.insert("store.replication.divergences", s.replication.2 as f64);
        values.insert("sim.recovery.replayed_records", s.replayed_records as f64);
        values.insert("sim.replay.durable_overhead_x", durable_s / plain_s.max(1e-9));
        values.insert(
            "sim.recovery.ms_per_krecord",
            kill_s * 1e3 / (s.replayed_records.max(1) as f64 / 1e3),
        );
        values.insert("sim.replay.makespan_sum_s", s.plain.iter().map(|o| o.makespan).sum::<f64>());
        let outcome = Self::outcome(&sweeps, failed);
        self.last_traced = sweeps.pop();
        outcome
    }

    fn side_measurements(&mut self, values: &mut LayerValues) {
        if let Some(sweep) = self.last_traced.take() {
            self.explain(&sweep, values);
        }
        // Tracing cost rides along: the plain replays with the sink on vs off.
        let (mut on, mut off) = (0.0, 0.0);
        for fs in &self.scenarios {
            on += best_of(2, || layers::replay_traced(fs, &layers::observer_enabled()));
            off += best_of(2, || layers::replay_traced(fs, &layers::observer_disabled()));
        }
        values.insert("obs.trace.overhead_x", on / off.max(1e-9));
    }

    fn check(&mut self) -> Vec<String> {
        self.judge(&self.sweep(None)).into_iter().map(|f| format!("durable_faults: {f}")).collect()
    }
}

impl DurableFaults {
    /// Re-time the durable control plane's parts standalone over the sweep's
    /// own journals, and say how much of `durable − plain` they explain.
    fn explain(&self, s: &Sweep, values: &mut LayerValues) {
        let histories: Vec<Vec<(String, String)>> =
            s.journals.iter().map(|j| layers::journal_history(&j.journal)).collect();
        let records: usize = histories.iter().map(Vec::len).sum();
        let per_record_ns = |seconds: f64| seconds * 1e9 / records.max(1) as f64;
        let events: Vec<_> = histories.iter().map(|h| layers::control_decode_all(h)).collect();
        let frames: Vec<_> = histories.iter().map(|h| layers::journal_frames(h)).collect();
        let images: Vec<_> = frames.iter().map(|f| layers::wal_append_all(f)).collect();
        let payload_bytes: usize = frames.iter().flatten().map(Vec::len).sum();
        let image_bytes: usize = images.iter().map(Vec::len).sum();

        let append_s = sum_best(&histories, |h| layers::journal_append_all(h));
        let decode_s = sum_best(&histories, |h| layers::control_decode_all(h));
        let encode_s = sum_best(&events, |e| layers::control_encode_all(e));
        let wal_append_s = sum_best(&frames, |f| layers::wal_append_all(f));
        let wal_read_s = sum_best(&images, |i| layers::wal_read(i));
        let recover_s = sum_best(&s.journals, |j| layers::journal_recover(&j.journal));

        // Apply, serialise and hash on each journal's own initial state.
        let (mut apply_s, mut to_bytes_s, mut hash_s) = (0.0, 0.0, 0.0);
        for (j, e) in s.journals.iter().zip(&events) {
            let initial = layers::control_initial_state(&j.journal);
            apply_s += best_of(3, || {
                let mut state = initial.clone();
                layers::control_apply_all(&mut state, e);
            });
            let mut end = initial;
            layers::control_apply_all(&mut end, e);
            to_bytes_s += best_of(3, || layers::control_to_bytes(&end));
            hash_s += best_of(3, || layers::control_hash(&end));
        }
        let n = s.journals.len().max(1) as f64;

        values.insert("store.journal.append_ns", per_record_ns(append_s));
        values.insert("store.wal.append_ns", per_record_ns(wal_append_s));
        values.insert("store.wal.read_ns_per_record", per_record_ns(wal_read_s));
        values
            .insert("store.wal.framing_overhead", image_bytes as f64 / payload_bytes.max(1) as f64);
        values.insert("store.journal.recover_ms", recover_s * 1e3);
        values.insert("runtime.durable.encode_ns", per_record_ns(encode_s));
        values.insert("runtime.durable.decode_ns", per_record_ns(decode_s));
        values.insert("runtime.durable.apply_ns", per_record_ns(apply_s));
        values.insert("runtime.durable.to_bytes_us", to_bytes_s * 1e6 / n);
        values.insert("runtime.durable.hash_us", hash_s * 1e6 / n);

        let sample: Vec<Vec<u8>> =
            frames.iter().flatten().take(FILE_WAL_RECORDS).cloned().collect();
        let path = std::path::Path::new(crate::OUT_DIR).join("durable_faults.probe.wal");
        let file_s = timed(|| layers::file_wal_append_sync(&path, &sample));
        if let (Ok(()), seconds) = file_s {
            values.insert("store.file_wal.append_sync_us", seconds * 1e6 / sample.len() as f64);
        }

        // A deputy check fingerprints one site repository on each side.
        let repos: Vec<_> =
            self.scenarios.iter().flat_map(|fs| fs.scenario.federation.repos.iter()).collect();
        let repo_hash_s =
            repos.iter().map(|r| best_of(3, || layers::repo_state_hash(r))).sum::<f64>()
                / repos.len().max(1) as f64;
        values.insert("store.replication.hash_us", repo_hash_s * 1e6);

        // records × (encode + append) + snapshots × (to_bytes + hash)
        // + checks × 2 repository hashes + shipped frames × (decode + apply),
        // over durable − plain.
        let snapshots: u64 =
            s.journals.iter().map(|j| layers::journal_stats(&j.journal).snapshots).sum();
        let per_state = |seconds: f64| seconds / n;
        let (frames, checks, _) = s.replication;
        let explained = encode_s
            + append_s
            + snapshots as f64 * (per_state(to_bytes_s) + per_state(hash_s))
            + checks as f64 * 2.0 * repo_hash_s
            + frames as f64 * (decode_s + apply_s) / records.max(1) as f64;
        let (durable_s, plain_s, _) = s.seconds;
        values.insert("durable.explained_share", explained / (durable_s - plain_s).max(1e-9));
    }
}
