//! E6 / §4.2 — the Data Manager: point-to-point latency and throughput
//! per transport and message size, plus the acknowledged channel-setup
//! cost.
//!
//! Claim under test: "low-latency and high-speed communication … for
//! inter-task communications" over socket-based point-to-point channels.

use super::Claims;
use std::sync::Arc;
use std::time::Instant;
use vdce_obs::Report;
use vdce_runtime::{ChannelId, DataManager, EventLog, Transport};
use vdce_sim::Table;

pub(super) fn run(claims: &mut Claims) -> String {
    let mut t =
        Table::new(&["transport", "msg_bytes", "round_trips", "latency_us", "throughput_MBps"]);
    for &transport in &[Transport::InProc, Transport::Tcp] {
        let dm = DataManager::new(transport, EventLog::new());
        for &size in &[64usize, 1024, 65_536, 1 << 20, 4 << 20] {
            let (tx, rx) = dm.open_channel(ChannelId { app: 0, edge: size }).unwrap();
            let payload: Arc<[u8]> = Arc::from(vec![7u8; size]);
            // Warm-up.
            for _ in 0..16 {
                tx.send(payload.clone()).unwrap();
                rx.recv().unwrap();
            }
            let iters = if size >= (1 << 20) { 200 } else { 2000 };
            let t0 = Instant::now();
            for _ in 0..iters {
                tx.send(payload.clone()).unwrap();
                rx.recv().unwrap();
            }
            let dt = t0.elapsed().as_secs_f64();
            t.row(&[
                format!("{transport:?}"),
                size.to_string(),
                iters.to_string(),
                format!("{:.2}", dt / iters as f64 * 1e6),
                format!("{:.1}", size as f64 * iters as f64 / dt / 1e6),
            ]);
        }
    }
    // Channel-setup (ack protocol) cost.
    let mut t2 = Table::new(&["transport", "channels", "setup_ms", "acks"]);
    for &transport in &[Transport::InProc, Transport::Tcp] {
        for &channels in &[8usize, 64] {
            let dm = DataManager::new(transport, EventLog::new());
            let t0 = Instant::now();
            let (_s, _r) = dm.open_all(1, channels).unwrap();
            let ms = t0.elapsed().as_secs_f64() * 1e3;
            claims.check(dm.setup_acks() == channels, || {
                format!("e6: {transport:?}: {} acks for {channels} channels", dm.setup_acks())
            });
            t2.row(&[
                format!("{transport:?}"),
                channels.to_string(),
                format!("{ms:.2}"),
                dm.setup_acks().to_string(),
            ]);
        }
    }
    Report::new("E6: Data-Manager transport sweep")
        .table(t)
        .text("channel-setup (ack protocol) cost:")
        .table(t2)
        .render()
}
