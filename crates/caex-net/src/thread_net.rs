//! A real multi-threaded transport with the same FIFO guarantees as the
//! simulator, built on `std::sync::mpsc` channels.
//!
//! Each node owns a [`NodePort`]: an inbox plus the ability to send to
//! every other node. Per-sender FIFO holds because a sending thread's
//! sends into a channel are totally ordered, and `mpsc` channels
//! deliver each sender's messages in order.

use crate::{FifoPort, Kinded, NetStats, NodeId};
use parking_lot::Mutex;
use std::fmt;
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::time::Duration;

/// Error from [`NodePort::recv_timeout`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RecvTimeoutError {
    /// No message arrived within the timeout.
    Timeout,
    /// All other ports were dropped; no message can ever arrive.
    Disconnected,
}

impl fmt::Display for RecvTimeoutError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RecvTimeoutError::Timeout => f.write_str("receive timed out"),
            RecvTimeoutError::Disconnected => f.write_str("all peers disconnected"),
        }
    }
}

impl std::error::Error for RecvTimeoutError {}

/// One node's endpoint in a [`ThreadNet`]. Move it onto the node's
/// thread; it is `Send` whenever the payload is.
#[derive(Debug)]
pub struct NodePort<M> {
    id: NodeId,
    peers: Arc<Vec<Sender<(NodeId, M)>>>,
    inbox: Receiver<(NodeId, M)>,
    stats: Arc<Mutex<NetStats>>,
}

impl<M: Kinded> NodePort<M> {
    /// This port's node id.
    #[must_use]
    pub fn id(&self) -> NodeId {
        self.id
    }

    /// Number of nodes in the network.
    #[must_use]
    pub fn num_nodes(&self) -> u32 {
        self.peers.len() as u32
    }

    /// Sends `payload` to `to`. Returns `false` if the destination's
    /// port was dropped (treated as a crashed node).
    ///
    /// # Panics
    ///
    /// Panics if `to` is outside the network.
    pub fn send(&self, to: NodeId, payload: M) -> bool {
        let kind = payload.kind();
        let sender = self
            .peers
            .get(to.index() as usize)
            .unwrap_or_else(|| panic!("node {to} outside network of {}", self.peers.len()));
        let ok = sender.send((self.id, payload)).is_ok();
        let mut stats = self.stats.lock();
        if ok {
            stats.record_send(kind);
            stats.record_channel(self.id, to);
        } else {
            stats.record_drop(kind);
        }
        ok
    }

    /// Sends a clone of `payload` to every node in `to`.
    pub fn broadcast<I>(&self, to: I, payload: M)
    where
        I: IntoIterator<Item = NodeId>,
        M: Clone,
    {
        for dest in to {
            self.send(dest, payload.clone());
        }
    }

    /// Blocks until a message arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] if nothing arrived in time;
    /// [`RecvTimeoutError::Disconnected`] if every sender is gone.
    pub fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvTimeoutError> {
        match self.inbox.recv_timeout(timeout) {
            Ok((from, payload)) => {
                self.stats.lock().record_delivery(payload.kind());
                Ok((from, payload))
            }
            Err(mpsc::RecvTimeoutError::Timeout) => Err(RecvTimeoutError::Timeout),
            Err(mpsc::RecvTimeoutError::Disconnected) => Err(RecvTimeoutError::Disconnected),
        }
    }

    /// Non-blocking receive; `None` when the inbox is empty.
    pub fn try_recv(&self) -> Option<(NodeId, M)> {
        match self.inbox.try_recv() {
            Ok((from, payload)) => {
                self.stats.lock().record_delivery(payload.kind());
                Some((from, payload))
            }
            Err(_) => None,
        }
    }

    /// Drains messages still sitting in the inbox when the node stops,
    /// recording each as a per-kind drop instead of a delivery. Without
    /// this, a thread that exits on its idle timeout leaves in-flight
    /// messages unaccounted — `sent` would exceed `delivered + dropped`
    /// and the per-kind breakdown shown by [`NetStats`]'s `Display`
    /// would be incomplete on the thread engine. Returns the number of
    /// messages drained.
    pub fn drain_undelivered(&self) -> usize {
        let mut drained = 0;
        while let Ok((_, payload)) = self.inbox.try_recv() {
            self.stats.lock().record_drop(payload.kind());
            drained += 1;
        }
        drained
    }
}

impl<M: Kinded> FifoPort<M> for NodePort<M> {
    fn id(&self) -> NodeId {
        NodePort::id(self)
    }

    fn num_nodes(&self) -> u32 {
        NodePort::num_nodes(self)
    }

    fn send(&self, to: NodeId, payload: M) -> bool {
        NodePort::send(self, to, payload)
    }

    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvTimeoutError> {
        NodePort::recv_timeout(self, timeout)
    }

    fn drain_undelivered(&self) -> usize {
        NodePort::drain_undelivered(self)
    }
}

/// Factory for a set of interconnected [`NodePort`]s plus shared stats.
///
/// # Examples
///
/// ```
/// use caex_net::{NodeId, ThreadNet};
/// use std::time::Duration;
///
/// let net: ThreadNet<&'static str> = ThreadNet::new(2);
/// let stats = net.stats();
/// let mut ports = net.into_ports();
/// let b = ports.pop().unwrap();
/// let a = ports.pop().unwrap();
///
/// a.send(NodeId::new(1), "hello");
/// let (from, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
/// assert_eq!(from, NodeId::new(0));
/// assert_eq!(msg, "hello");
/// assert_eq!(stats.lock().sent_total(), 1);
/// ```
#[derive(Debug)]
pub struct ThreadNet<M> {
    ports: Vec<NodePort<M>>,
    stats: Arc<Mutex<NetStats>>,
}

impl<M: Kinded> ThreadNet<M> {
    /// Creates `n` fully connected ports with unbounded inboxes.
    #[must_use]
    pub fn new(n: u32) -> Self {
        let stats = Arc::new(Mutex::new(NetStats::default()));
        let mut senders = Vec::with_capacity(n as usize);
        let mut inboxes = Vec::with_capacity(n as usize);
        for _ in 0..n {
            let (tx, rx) = mpsc::channel();
            senders.push(tx);
            inboxes.push(rx);
        }
        let peers = Arc::new(senders);
        let ports = inboxes
            .into_iter()
            .enumerate()
            .map(|(i, inbox)| NodePort {
                id: NodeId::new(i as u32),
                peers: Arc::clone(&peers),
                inbox,
                stats: Arc::clone(&stats),
            })
            .collect();
        ThreadNet { ports, stats }
    }

    /// Shared statistics handle (usable after `into_ports`).
    #[must_use]
    pub fn stats(&self) -> Arc<Mutex<NetStats>> {
        Arc::clone(&self.stats)
    }

    /// Consumes the factory, yielding the ports in node-id order.
    #[must_use]
    pub fn into_ports(self) -> Vec<NodePort<M>> {
        self.ports
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::thread;

    #[test]
    fn ports_are_send() {
        fn assert_send<T: Send>() {}
        assert_send::<NodePort<&'static str>>();
    }

    #[test]
    fn per_sender_fifo_across_threads() {
        let net: ThreadNet<String> = ThreadNet::new(2);
        let mut ports = net.into_ports();
        let receiver = ports.pop().unwrap();
        let sender = ports.pop().unwrap();

        let handle = thread::spawn(move || {
            for i in 0..100 {
                sender.send(NodeId::new(1), format!("{i}"));
            }
        });

        let mut next = 0;
        while next < 100 {
            let (_, msg) = receiver.recv_timeout(Duration::from_secs(5)).unwrap();
            assert_eq!(msg, next.to_string());
            next += 1;
        }
        handle.join().unwrap();
    }

    #[test]
    fn timeout_when_no_message() {
        let net: ThreadNet<&'static str> = ThreadNet::new(2);
        let ports = net.into_ports();
        assert_eq!(
            ports[0].recv_timeout(Duration::from_millis(10)),
            Err(RecvTimeoutError::Timeout)
        );
    }

    #[test]
    fn send_to_dropped_port_reports_failure() {
        let net: ThreadNet<&'static str> = ThreadNet::new(2);
        let stats = net.stats();
        let mut ports = net.into_ports();
        drop(ports.pop()); // node 1 "crashes"
        let a = ports.pop().unwrap();
        assert!(!a.send(NodeId::new(1), "lost"));
        assert_eq!(stats.lock().dropped_total(), 1);
    }

    #[test]
    fn broadcast_fans_out() {
        let net: ThreadNet<&'static str> = ThreadNet::new(3);
        let ports = net.into_ports();
        ports[0].broadcast([NodeId::new(1), NodeId::new(2)], "all");
        for p in &ports[1..] {
            let (from, msg) = p.recv_timeout(Duration::from_secs(1)).unwrap();
            assert_eq!(from, NodeId::new(0));
            assert_eq!(msg, "all");
        }
    }

    #[test]
    fn try_recv_is_nonblocking() {
        let net: ThreadNet<&'static str> = ThreadNet::new(2);
        let ports = net.into_ports();
        assert!(ports[1].try_recv().is_none());
        ports[0].send(NodeId::new(1), "x");
        // Unbounded channel: the message is immediately available.
        assert_eq!(ports[1].try_recv(), Some((NodeId::new(0), "x")));
    }

    #[test]
    #[should_panic(expected = "outside network")]
    fn send_outside_network_panics() {
        let net: ThreadNet<&'static str> = ThreadNet::new(1);
        let ports = net.into_ports();
        ports[0].send(NodeId::new(5), "bad");
    }
}
