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
/// - **Crash surfacing**: transports that can detect peer crashes
///   (heartbeat timeout, connection teardown) report them through
///   [`FifoPort::take_crashed`]; in-process transports never do.
pub trait FifoPort<M> {
    /// This port's node id.
    fn id(&self) -> NodeId;

    /// Number of nodes in the network.
    fn num_nodes(&self) -> u32;

    /// Sends `payload` to `to`; `false` if the peer is known dead.
    fn send(&self, to: NodeId, payload: M) -> bool;

    /// Blocks until a message arrives or `timeout` elapses.
    ///
    /// # Errors
    ///
    /// [`RecvTimeoutError::Timeout`] when nothing arrived in time, or
    /// earlier when the failure detector has news for the `take_*`
    /// calls (a suspected peer is heard from again);
    /// [`RecvTimeoutError::Disconnected`] when no message can ever
    /// arrive again.
    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvTimeoutError>;

    /// Peers newly detected as crashed since the last call. Each
    /// crashed peer is reported exactly once; transports without
    /// failure detection return an empty list (the default).
    ///
    /// Transports with an *accrual* detector report here only peers
    /// whose death is **confirmed** (suspicion sustained across polls,
    /// or hard evidence like a torn-down connection that would not
    /// redial); mere latency spikes surface through
    /// [`FifoPort::take_suspected`] instead.
    fn take_crashed(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Peers newly *suspected* (silence beyond the detector's
    /// suspicion threshold, but not yet confirmed dead) since the last
    /// call. A peer may be reported here, recover, and be reported
    /// again — unlike [`FifoPort::take_crashed`] this is not
    /// once-only. Transports without an accrual detector return an
    /// empty list (the default).
    fn take_suspected(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Previously suspected peers heard from again (a suspicion flap)
    /// since the last call — the cue for a survivor to run a
    /// commit-forwarding round toward the returning peer. Transports
    /// without reconnect support return an empty list (the default).
    fn take_rejoined(&self) -> Vec<NodeId> {
        Vec::new()
    }

    /// Called once when the node stops: drains messages still sitting
    /// in the inbox, accounting each as a drop rather than a delivery,
    /// and returns how many were drained. Transports without such
    /// accounting return `0` (the default).
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
