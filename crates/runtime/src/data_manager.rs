//! The Data Manager (§4.2): point-to-point inter-task communication.
//!
//! > "The VDCE Data Manager is a socket-based, point-to-point
//! > communication system for inter-task communications. The Data Manager
//! > activates the communication proxy and sends the resource allocation
//! > information, including the socket number, IP address for \[the\]
//! > target machine, etc., that will be used for communication channel
//! > setup. After the setup is completed successfully, the communication
//! > proxy sends an acknowledgment to the Application Controller."
//!
//! Two transports behind one API:
//!
//! - [`Transport::InProc`] — `std::sync::mpsc` channels (what a co-located task
//!   pair would use);
//! - [`Transport::Tcp`] — real loopback TCP sockets with length-prefixed
//!   frames and a proxy thread per channel, reproducing the paper's
//!   socket/proxy architecture.
//!
//! [`DataManager::open_channel`] performs the acknowledged setup and logs
//! [`RuntimeEvent::ChannelReady`]; the Application Controller counts those
//! acknowledgments before broadcasting the start-up signal.

use crate::events::{EventLog, RuntimeEvent};
use std::fmt;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::mpsc::{sync_channel, Receiver, RecvTimeoutError, SyncSender};
use std::sync::{Arc, Mutex};
use std::time::Duration;

/// Identifies one dataflow channel: edge `edge` of application `app`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ChannelId {
    /// Application instance identifier.
    pub app: u64,
    /// Edge index within the AFG.
    pub edge: usize,
}

/// Which wire the channel uses.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// In-process `std::sync::mpsc` channel.
    InProc,
    /// Loopback TCP with a proxy thread (the paper's architecture).
    Tcp,
}

/// Data-plane errors.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DataError {
    /// Socket/channel setup failed.
    Setup(String),
    /// The peer is gone.
    Closed,
    /// `recv_timeout` elapsed.
    Timeout,
}

impl fmt::Display for DataError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            DataError::Setup(e) => write!(f, "channel setup failed: {e}"),
            DataError::Closed => write!(f, "channel closed"),
            DataError::Timeout => write!(f, "receive timed out"),
        }
    }
}

impl std::error::Error for DataError {}

enum TxImpl {
    InProc(SyncSender<Arc<[u8]>>),
    Tcp(Mutex<TcpStream>),
}

/// Sending half of a channel.
pub struct DataSender {
    tx: TxImpl,
}

impl DataSender {
    /// Send one payload frame.
    pub fn send(&self, payload: Arc<[u8]>) -> Result<(), DataError> {
        match &self.tx {
            TxImpl::InProc(tx) => tx.send(payload).map_err(|_| DataError::Closed),
            TxImpl::Tcp(stream) => {
                let mut s = stream.lock().unwrap();
                let len = (payload.len() as u32).to_le_bytes();
                s.write_all(&len).and_then(|_| s.write_all(&payload)).map_err(|_| DataError::Closed)
            }
        }
    }
}

/// Receiving half of a channel (both transports surface frames through a
/// bounded `mpsc` receiver; TCP has a proxy thread pumping the socket).
pub struct DataReceiver {
    rx: Receiver<Arc<[u8]>>,
}

impl DataReceiver {
    /// Blocking receive.
    pub fn recv(&self) -> Result<Arc<[u8]>, DataError> {
        self.rx.recv().map_err(|_| DataError::Closed)
    }

    /// Receive with timeout.
    pub(crate) fn recv_timeout(&self, timeout: Duration) -> Result<Arc<[u8]>, DataError> {
        self.rx.recv_timeout(timeout).map_err(|e| match e {
            RecvTimeoutError::Timeout => DataError::Timeout,
            RecvTimeoutError::Disconnected => DataError::Closed,
        })
    }
}

/// Per-channel frame queue depth (provides back-pressure like a socket
/// buffer).
const CHANNEL_DEPTH: usize = 64;

/// The Data Manager: opens acknowledged point-to-point channels.
pub struct DataManager {
    transport: Transport,
    log: EventLog,
    acks: Mutex<usize>,
}

impl DataManager {
    /// Manager using `transport` for every channel.
    pub fn new(transport: Transport, log: EventLog) -> Self {
        DataManager { transport, log, acks: Mutex::new(0) }
    }

    /// Number of channel-setup acknowledgments received so far — what the
    /// Application Controller waits on before the start-up signal.
    pub fn setup_acks(&self) -> usize {
        *self.acks.lock().unwrap()
    }

    /// Open one point-to-point channel; blocks until the setup handshake
    /// completes (socket connected / queue wired) and the proxy has
    /// acknowledged.
    pub fn open_channel(&self, id: ChannelId) -> Result<(DataSender, DataReceiver), DataError> {
        let pair = match self.transport {
            Transport::InProc => {
                let (tx, rx) = sync_channel(CHANNEL_DEPTH);
                (DataSender { tx: TxImpl::InProc(tx) }, DataReceiver { rx })
            }
            Transport::Tcp => {
                // Receiver side: bind an ephemeral loopback port...
                let listener = TcpListener::bind("127.0.0.1:0")
                    .map_err(|e| DataError::Setup(e.to_string()))?;
                let addr = listener.local_addr().map_err(|e| DataError::Setup(e.to_string()))?;
                // ...and start the communication proxy pumping frames.
                let (frames_tx, frames_rx) = sync_channel::<Arc<[u8]>>(CHANNEL_DEPTH);
                std::thread::Builder::new()
                    .name(format!("vdce-proxy-{}-{}", id.app, id.edge))
                    .spawn(move || {
                        let Ok((mut conn, _)) = listener.accept() else { return };
                        let mut len_buf = [0u8; 4];
                        loop {
                            if conn.read_exact(&mut len_buf).is_err() {
                                return; // EOF / peer closed
                            }
                            let len = u32::from_le_bytes(len_buf) as usize;
                            let mut payload = vec![0u8; len];
                            if conn.read_exact(&mut payload).is_err() {
                                return;
                            }
                            if frames_tx.send(Arc::from(payload)).is_err() {
                                return; // receiver dropped
                            }
                        }
                    })
                    .map_err(|e| DataError::Setup(e.to_string()))?;
                // Sender side: connect (this is the "socket number, IP
                // address" exchange — addr carries both).
                let stream =
                    TcpStream::connect(addr).map_err(|e| DataError::Setup(e.to_string()))?;
                stream.set_nodelay(true).ok();
                (DataSender { tx: TxImpl::Tcp(Mutex::new(stream)) }, DataReceiver { rx: frames_rx })
            }
        };
        // Proxy acknowledgment to the Application Controller.
        *self.acks.lock().unwrap() += 1;
        self.log.emit(0.0, RuntimeEvent::ChannelReady { channel: id.edge });
        Ok(pair)
    }

    /// Open one channel per edge of an application; returns the sender
    /// and receiver halves indexed by edge. All setups must succeed.
    #[allow(clippy::type_complexity)]
    pub fn open_all(
        &self,
        app: u64,
        edges: usize,
    ) -> Result<(Vec<DataSender>, Vec<DataReceiver>), DataError> {
        let mut senders = Vec::with_capacity(edges);
        let mut receivers = Vec::with_capacity(edges);
        for edge in 0..edges {
            let (s, r) = self.open_channel(ChannelId { app, edge })?;
            senders.push(s);
            receivers.push(r);
        }
        Ok((senders, receivers))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn round_trip(transport: Transport) {
        let dm = DataManager::new(transport, EventLog::new());
        let (tx, rx) = dm.open_channel(ChannelId { app: 1, edge: 0 }).unwrap();
        tx.send(Arc::from(&b"hello"[..])).unwrap();
        tx.send(Arc::from(&b""[..])).unwrap();
        tx.send(Arc::from(vec![7u8; 100_000])).unwrap();
        assert_eq!(rx.recv().unwrap(), Arc::from(&b"hello"[..]));
        assert_eq!(rx.recv().unwrap(), Arc::from(&b""[..]));
        assert_eq!(rx.recv().unwrap().len(), 100_000);
    }

    #[test]
    fn inproc_round_trip() {
        round_trip(Transport::InProc);
    }

    #[test]
    fn tcp_round_trip() {
        round_trip(Transport::Tcp);
    }

    #[test]
    fn tcp_preserves_frame_boundaries_and_order() {
        let dm = DataManager::new(Transport::Tcp, EventLog::new());
        let (tx, rx) = dm.open_channel(ChannelId { app: 2, edge: 0 }).unwrap();
        for i in 0..100u32 {
            tx.send(Arc::from(i.to_le_bytes().to_vec())).unwrap();
        }
        for i in 0..100u32 {
            let f = rx.recv().unwrap();
            assert_eq!(u32::from_le_bytes(f.as_ref().try_into().unwrap()), i);
        }
    }

    #[test]
    fn setup_acks_are_counted_and_logged() {
        let log = EventLog::new();
        let dm = DataManager::new(Transport::InProc, log.clone());
        let (_s, _r) = dm.open_all(3, 4).unwrap();
        assert_eq!(dm.setup_acks(), 4);
        assert_eq!(log.count(|e| matches!(e, RuntimeEvent::ChannelReady { .. })), 4);
    }

    #[test]
    fn recv_timeout_on_empty_channel() {
        let dm = DataManager::new(Transport::InProc, EventLog::new());
        let (_tx, rx) = dm.open_channel(ChannelId { app: 1, edge: 0 }).unwrap();
        assert_eq!(rx.recv_timeout(Duration::from_millis(10)).unwrap_err(), DataError::Timeout);
    }

    #[test]
    fn dropped_sender_closes_channel() {
        let dm = DataManager::new(Transport::InProc, EventLog::new());
        let (tx, rx) = dm.open_channel(ChannelId { app: 1, edge: 0 }).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap_err(), DataError::Closed);
    }

    #[test]
    fn tcp_dropped_sender_closes_channel() {
        let dm = DataManager::new(Transport::Tcp, EventLog::new());
        let (tx, rx) = dm.open_channel(ChannelId { app: 1, edge: 0 }).unwrap();
        tx.send(Arc::from(&b"last"[..])).unwrap();
        drop(tx);
        assert_eq!(rx.recv().unwrap(), Arc::from(&b"last"[..]));
        assert_eq!(rx.recv().unwrap_err(), DataError::Closed);
    }

    #[test]
    fn cross_thread_tcp_transfer() {
        let dm = DataManager::new(Transport::Tcp, EventLog::new());
        let (tx, rx) = dm.open_channel(ChannelId { app: 9, edge: 0 }).unwrap();
        let producer = std::thread::spawn(move || {
            for i in 0..50u64 {
                tx.send(Arc::from(i.to_le_bytes().to_vec())).unwrap();
            }
        });
        let mut sum = 0u64;
        for _ in 0..50 {
            let f = rx.recv().unwrap();
            sum += u64::from_le_bytes(f.as_ref().try_into().unwrap());
        }
        producer.join().unwrap();
        assert_eq!(sum, (0..50).sum::<u64>());
    }

    #[test]
    fn error_display() {
        assert!(DataError::Setup("x".into()).to_string().contains("x"));
        assert_eq!(DataError::Timeout.to_string(), "receive timed out");
    }
}
