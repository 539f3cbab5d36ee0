//! Deterministic distributed-system substrate for the `caex` workspace.
//!
//! The resolution algorithm of Romanovsky, Xu & Randell (1996) assumes
//! only two things of its environment (§4.2): **reliable FIFO message
//! passing between objects** and asynchronous progress of the
//! participating objects. This crate provides that substrate twice:
//!
//! - [`SimNet`] — a deterministic discrete-event simulator with a
//!   virtual clock, per-ordered-pair FIFO channels, pluggable latency
//!   models, optional fault injection and per-kind message statistics.
//!   All the paper's complexity measurements run on it because it counts
//!   real messages exactly and reproducibly.
//! - [`ThreadNet`] — a multi-threaded transport over `std::sync::mpsc` channels,
//!   demonstrating the same algorithm outside simulation.
//!
//! # Quick example
//!
//! ```
//! use caex_net::{NetConfig, NodeId, SimNet};
//!
//! let mut net: SimNet<&'static str> = SimNet::new(NetConfig::default(), 2);
//! let (a, b) = (NodeId::new(0), NodeId::new(1));
//! net.send(a, b, "ping");
//! net.send(a, b, "pong");
//!
//! let first = net.next_delivery().unwrap();
//! let second = net.next_delivery().unwrap();
//! // FIFO: per-channel order is preserved regardless of latency jitter.
//! assert_eq!(first.payload, "ping");
//! assert_eq!(second.payload, "pong");
//! assert!(net.next_delivery().is_none());
//! ```


mod channels;
mod fault;
mod idmap;
mod labels;
mod latency;
mod node;
mod port;
mod sim;
mod stats;
mod thread_net;
mod time;

pub use channels::ChannelState;
pub use fault::{FaultEvent, FaultPlan};
pub use idmap::{IdHasher, IdMap, IdSet};
pub use labels::LabelCounts;
pub use latency::LatencyModel;
pub use node::NodeId;
pub use port::FifoPort;
pub use sim::{Delivery, DeliverySource, NetConfig, SimNet};
pub use stats::NetStats;
pub use thread_net::{NodePort, RecvTimeoutError, ThreadNet};
pub use time::SimTime;

/// Classifies message payloads for per-kind statistics.
///
/// The paper's complexity analysis (§4.4) counts messages *by type*
/// (`Exception`, `ACK`, `HaveNested`, `NestedCompleted`, `Commit`);
/// implementing this trait lets [`SimNet`] maintain those counters
/// automatically.
///
/// # Examples
///
/// ```
/// use caex_net::Kinded;
///
/// enum Msg { Ping, Pong }
/// impl Kinded for Msg {
///     fn kind(&self) -> &'static str {
///         match self { Msg::Ping => "ping", Msg::Pong => "pong" }
///     }
/// }
/// assert_eq!(Msg::Ping.kind(), "ping");
/// ```
pub trait Kinded {
    /// A short static label naming this payload's message type.
    fn kind(&self) -> &'static str;

    /// The index of the action this payload belongs to, if any — used
    /// by [`NetStats`] to break counters down per action when many
    /// actions multiplex one network. The default (`None`) keeps
    /// single-action payloads and non-protocol traffic out of the
    /// per-action tables.
    fn action_index(&self) -> Option<u32> {
        None
    }
}

impl Kinded for &'static str {
    fn kind(&self) -> &'static str {
        self
    }
}

impl Kinded for String {
    fn kind(&self) -> &'static str {
        "string"
    }
}
