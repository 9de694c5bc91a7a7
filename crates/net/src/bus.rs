//! In-memory inter-site message bus.
//!
//! Site Managers coordinate scheduling and monitoring by exchanging
//! messages — the site-scheduler *multicasts* the AFG to the selected
//! neighbour sites and collects each site's host-selection output
//! (Figure 2, steps 3 and 5), and "the inter-site coordination and message
//! transfer (for scheduling and monitoring purposes) are handled by Site
//! Managers" (§4.1).
//!
//! [`MessageBus`] connects one [`Endpoint`] per site with reliable,
//! FIFO-per-sender delivery (`std::sync::mpsc` channels) and counts messages and
//! bytes per directed site pair so experiments can report coordination
//! traffic. Latency is modelled, not enforced: callers that want delay
//! semantics combine the byte counts with a [`crate::model::NetworkModel`].

use crate::topology::SiteId;
use std::collections::BTreeMap;
use std::fmt;
use std::sync::mpsc::{channel, Receiver, Sender, TryRecvError};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Errors from bus operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum BusError {
    /// Destination site was never registered.
    UnknownSite(SiteId),
    /// Destination endpoint has been dropped.
    Disconnected(SiteId),
    /// `recv_timeout` elapsed with no message.
    Timeout,
}

impl fmt::Display for BusError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BusError::UnknownSite(s) => write!(f, "site {s} is not on the bus"),
            BusError::Disconnected(s) => write!(f, "site {s} endpoint disconnected"),
            BusError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for BusError {}

/// An addressed message as delivered to an endpoint.
#[derive(Debug, Clone, PartialEq)]
pub struct Delivery<M> {
    /// Sending site.
    pub from: SiteId,
    /// Payload.
    pub msg: M,
}

/// Per-directed-link traffic counters.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct LinkTraffic {
    /// Messages sent.
    pub messages: u64,
    /// Payload bytes sent (as declared by the sender).
    pub bytes: u64,
}

struct Shared<M> {
    senders: Mutex<BTreeMap<SiteId, Sender<Delivery<M>>>>,
    traffic: Mutex<BTreeMap<(SiteId, SiteId), LinkTraffic>>,
}

/// The bus: clone freely; all clones share the same wiring.
pub struct MessageBus<M> {
    shared: Arc<Shared<M>>,
}

impl<M> Clone for MessageBus<M> {
    fn clone(&self) -> Self {
        MessageBus { shared: Arc::clone(&self.shared) }
    }
}

impl<M> Default for MessageBus<M> {
    fn default() -> Self {
        Self::new()
    }
}

/// A site's receive endpoint.
pub struct Endpoint<M> {
    /// The site this endpoint belongs to.
    pub site: SiteId,
    rx: Receiver<Delivery<M>>,
}

impl<M> MessageBus<M> {
    /// Empty bus.
    pub fn new() -> Self {
        MessageBus {
            shared: Arc::new(Shared {
                senders: Mutex::new(BTreeMap::new()),
                traffic: Mutex::new(BTreeMap::new()),
            }),
        }
    }
}

impl<M: Send + Clone> MessageBus<M> {
    /// Register `site` and obtain its endpoint. Re-registering replaces
    /// the previous endpoint (its receiver starts draining a fresh queue).
    pub fn register(&self, site: SiteId) -> Endpoint<M> {
        let (tx, rx) = channel();
        self.shared.senders.lock().unwrap().insert(site, tx);
        Endpoint { site, rx }
    }

    /// Send `msg` from `from` to `to`, declaring `bytes` of payload for
    /// traffic accounting.
    pub fn send(&self, from: SiteId, to: SiteId, msg: M, bytes: u64) -> Result<(), BusError> {
        let senders = self.shared.senders.lock().unwrap();
        let tx = senders.get(&to).ok_or(BusError::UnknownSite(to))?;
        tx.send(Delivery { from, msg }).map_err(|_| BusError::Disconnected(to))?;
        drop(senders);
        let mut t = self.shared.traffic.lock().unwrap();
        let e = t.entry((from, to)).or_default();
        e.messages += 1;
        e.bytes += bytes;
        Ok(())
    }

    /// Multicast `msg` from `from` to every site in `to` (step 3 of the
    /// site-scheduler algorithm). Returns the sites that could not be
    /// reached; an empty vec means full success.
    pub fn multicast(&self, from: SiteId, to: &[SiteId], msg: M, bytes: u64) -> Vec<SiteId> {
        let mut failed = Vec::new();
        for &s in to {
            if self.send(from, s, msg.clone(), bytes).is_err() {
                failed.push(s);
            }
        }
        failed
    }

    /// Traffic counters for the directed link `from → to`.
    pub fn traffic(&self, from: SiteId, to: SiteId) -> LinkTraffic {
        self.shared.traffic.lock().unwrap().get(&(from, to)).copied().unwrap_or_default()
    }

    /// Total traffic across all links.
    pub fn total_traffic(&self) -> LinkTraffic {
        let t = self.shared.traffic.lock().unwrap();
        let mut sum = LinkTraffic::default();
        for v in t.values() {
            sum.messages += v.messages;
            sum.bytes += v.bytes;
        }
        sum
    }
}

impl<M> Endpoint<M> {
    /// Non-blocking receive.
    pub(crate) fn try_recv(&self) -> Option<Delivery<M>> {
        match self.rx.try_recv() {
            Ok(d) => Some(d),
            Err(TryRecvError::Empty) | Err(TryRecvError::Disconnected) => None,
        }
    }

    /// Blocking receive with timeout.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<Delivery<M>, BusError> {
        self.rx.recv_timeout(timeout).map_err(|_| BusError::Timeout)
    }

    /// Drain everything currently queued.
    pub fn drain(&self) -> Vec<Delivery<M>> {
        let mut v = Vec::new();
        while let Some(d) = self.try_recv() {
            v.push(d);
        }
        v
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn point_to_point_delivery() {
        let bus: MessageBus<String> = MessageBus::new();
        let _a = bus.register(SiteId(0));
        let b = bus.register(SiteId(1));
        bus.send(SiteId(0), SiteId(1), "afg".into(), 100).unwrap();
        let d = b.try_recv().unwrap();
        assert_eq!(d.from, SiteId(0));
        assert_eq!(d.msg, "afg");
        assert!(b.try_recv().is_none());
    }

    #[test]
    fn unknown_destination_is_an_error() {
        let bus: MessageBus<u32> = MessageBus::new();
        let _e0 = bus.register(SiteId(0));
        assert_eq!(bus.send(SiteId(0), SiteId(9), 1, 0), Err(BusError::UnknownSite(SiteId(9))));
    }

    #[test]
    fn multicast_reaches_all_registered_sites() {
        let bus: MessageBus<u32> = MessageBus::new();
        let _e0 = bus.register(SiteId(0));
        let eps: Vec<_> = (1..4).map(|i| bus.register(SiteId(i))).collect();
        let failed = bus.multicast(SiteId(0), &[SiteId(1), SiteId(2), SiteId(3)], 7, 10);
        assert!(failed.is_empty());
        for ep in &eps {
            assert_eq!(ep.try_recv().unwrap().msg, 7);
        }
    }

    #[test]
    fn multicast_reports_unreachable_sites() {
        let bus: MessageBus<u32> = MessageBus::new();
        let _e0 = bus.register(SiteId(0));
        let _e1 = bus.register(SiteId(1));
        let failed = bus.multicast(SiteId(0), &[SiteId(1), SiteId(5)], 7, 10);
        assert_eq!(failed, vec![SiteId(5)]);
    }

    #[test]
    fn traffic_accounting_per_link_and_total() {
        let bus: MessageBus<u32> = MessageBus::new();
        let _e0 = bus.register(SiteId(0));
        let _e1 = bus.register(SiteId(1));
        bus.send(SiteId(0), SiteId(1), 1, 100).unwrap();
        bus.send(SiteId(0), SiteId(1), 2, 200).unwrap();
        bus.send(SiteId(1), SiteId(0), 3, 50).unwrap();
        assert_eq!(bus.traffic(SiteId(0), SiteId(1)), LinkTraffic { messages: 2, bytes: 300 });
        assert_eq!(bus.traffic(SiteId(1), SiteId(0)), LinkTraffic { messages: 1, bytes: 50 });
        assert_eq!(bus.total_traffic(), LinkTraffic { messages: 3, bytes: 350 });
        assert_eq!(bus.traffic(SiteId(1), SiteId(1)), LinkTraffic::default());
    }

    #[test]
    fn fifo_per_sender() {
        let bus: MessageBus<u32> = MessageBus::new();
        bus.register(SiteId(0));
        let b = bus.register(SiteId(1));
        for i in 0..100 {
            bus.send(SiteId(0), SiteId(1), i, 1).unwrap();
        }
        let got: Vec<u32> = b.drain().into_iter().map(|d| d.msg).collect();
        assert_eq!(got, (0..100).collect::<Vec<_>>());
    }

    #[test]
    fn recv_timeout_times_out() {
        let bus: MessageBus<u32> = MessageBus::new();
        let a = bus.register(SiteId(0));
        assert_eq!(a.recv_timeout(Duration::from_millis(10)).unwrap_err(), BusError::Timeout);
    }

    #[test]
    fn cross_thread_delivery() {
        let bus: MessageBus<u64> = MessageBus::new();
        let a = bus.register(SiteId(0));
        let _b = bus.register(SiteId(1)); // sender side exists
        let bus2 = bus.clone();
        let t = thread::spawn(move || {
            for i in 0..1000u64 {
                bus2.send(SiteId(1), SiteId(0), i, 8).unwrap();
            }
        });
        t.join().unwrap();
        let sum: u64 = a.drain().into_iter().map(|d| d.msg).sum();
        assert_eq!(sum, (0..1000u64).sum::<u64>());
    }

    #[test]
    fn reregistering_replaces_endpoint() {
        let bus: MessageBus<u32> = MessageBus::new();
        let old = bus.register(SiteId(0));
        let new = bus.register(SiteId(0));
        bus.send(SiteId(0), SiteId(0), 5, 0).unwrap();
        assert!(old.try_recv().is_none(), "old endpoint is detached");
        assert_eq!(new.try_recv().unwrap().msg, 5);
    }
}
