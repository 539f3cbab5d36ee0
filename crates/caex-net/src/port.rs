//! The FIFO-channel contract shared by every real transport.
//!
//! The paper's algorithm assumes exactly one thing of its network
//! (§4.2): reliable FIFO message passing between objects. [`FifoPort`]
//! captures that contract so the participant driver loop can run
//! unchanged over in-process `mpsc` channels
//! ([`NodePort`](crate::NodePort)) or over real sockets
//! (`caex-wire`'s `WirePort`), and so tests can substitute fakes.

use crate::{NodeId, RecvTimeoutError};
use std::time::Duration;

/// One node's endpoint in a fully connected FIFO network.
///
/// Contract:
///
/// - **Per-sender FIFO**: two messages sent by the same node to the
///   same destination are delivered in send order.
/// - **Reliability while up**: a message to a live peer is eventually
///   delivered; [`FifoPort::send`] returning `false` means the peer is
///   known to be down (the message is dropped and accounted).
/// - **One input stream**: a transport with a failure detector
///   (heartbeat timeout, connection teardown) returns its reports from
///   [`FifoPort::recv_timeout`] as local events, in FIFO position among
///   the messages — a report queued before a message is received before
///   it. In-process transports have no detector.
pub trait FifoPort<M> {
    /// This port's node id.
    fn id(&self) -> NodeId;

    /// Number of nodes in the network.
    fn num_nodes(&self) -> u32;

    /// Sends `payload` to `to`; `false` if the peer is known dead.
    fn send(&self, to: NodeId, payload: M) -> bool;

    /// Blocks until a message or a failure-detector report arrives, or
    /// `timeout` elapses. A report comes as a local event paired with
    /// the peer it is about (`caex-wire` returns `caex::Event`'s
    /// `PeerSuspected`, `PeerRejoined` and `DeserterSuspected`); only a
    /// message counts as a delivery in the transport's statistics.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time;
    /// [`RecvTimeoutError::Disconnected`] when no message can ever
    /// arrive again.
    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvTimeoutError>;

    /// Retired: a detector's reports travel through
    /// [`FifoPort::recv_timeout`]. Always empty; kept only because the
    /// benchmark's own port wrapper still forwards it.
    fn take_crashed(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Retired, like [`FifoPort::take_crashed`].
    fn take_suspected(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Retired, like [`FifoPort::take_crashed`].
    fn take_rejoined(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Called once when the node stops: drains what is still sitting
    /// in the inbox, accounting each message as a drop rather than a
    /// delivery (a queued detector report is no message and is not
    /// counted), and returns how many messages were drained. Transports
    /// without such accounting return `0` (the default).
    fn drain_undelivered(&self) -> usize {
        0
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::ThreadNet;

    /// The generic driver pattern: a function constrained to the trait
    /// works over `NodePort`.
    fn ping<P: FifoPort<&'static str>>(a: &P, b: &P) {
        assert!(a.send(b.id(), "ping"));
        let (from, msg) = b.recv_timeout(Duration::from_secs(1)).unwrap();
        assert_eq!(from, a.id());
        assert_eq!(msg, "ping");
        assert!(b.take_crashed().is_empty());
    }

    #[test]
    fn node_port_satisfies_the_contract() {
        let net: ThreadNet<&'static str> = ThreadNet::new(2);
        let ports = net.into_ports();
        assert_eq!(ports[0].num_nodes(), 2);
        ping(&ports[0], &ports[1]);
    }
}
