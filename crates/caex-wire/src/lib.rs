//! Real-socket transport for the §4.2 exception-resolution algorithm.
//!
//! Everything else in the workspace runs the resolution protocol
//! inside one process — over the discrete-event [`caex_net::SimNet`]
//! or the in-process channel mesh [`caex_net::ThreadNet`]. This crate
//! supplies the third transport: a fully connected mesh of **real TCP
//! or Unix-domain sockets**, one OS process per participant, built
//! from `std::net`, threads and blocking I/O only.
//!
//! The layering mirrors the paper's claim that the resolution
//! algorithm is transport-agnostic:
//!
//! - [`frame`] — the length-prefixed, CRC-checked binary frame codec
//!   that carries [`caex::Msg`] values (via the `caex::codec` payload
//!   encoding) plus the control frames the mesh itself needs (hello,
//!   heartbeat, ready, bye).
//! - `detector` — the phi-accrual failure estimator: per-peer
//!   heartbeat inter-arrival history scored as a continuous suspicion
//!   level φ, with separate *suspect* and *confirm* thresholds.
//! - [`wire`] — [`wire::WirePort`], a [`caex_net::FifoPort`]
//!   implementation over the socket mesh: senders that write their own
//!   frames, a per-peer writer thread for backlog, heartbeats and
//!   reconnect-and-resume with incarnation-tagged
//!   re-handshakes, and two-stage (`Suspected → Confirmed`) failure
//!   detection whose reports travel in the port's one inbox, in FIFO
//!   order with the messages: a confirmed-dead peer surfaces as a §4.2
//!   *deserter* ([`caex::Event::DeserterSuspected`]) and a transient
//!   outage as `PeerSuspected` then `PeerRejoined`.
//! - [`scenario`] — the paper workloads (Examples 1 and 2, and the
//!   general `(n, p, q)` family) re-packaged for wall-clock execution,
//!   with the §4.4 message-count law attached where it applies.
//! - [`harness`] — multi-process orchestration: a coordinator that
//!   spawns one `caex-wire` binary per participant, a line-based
//!   rendezvous for address exchange, report aggregation, and the
//!   §4.4/§4.5 assertions against real socket traffic.
//!
//! The `caex-wire` binary (`--role coordinator|participant`) drives
//! all of it from the command line; see the README's "Wire transport"
//! walkthrough.

mod detector;
pub mod frame;
pub mod harness;
pub mod scenario;
pub mod wire;

pub use frame::{Frame, FrameError};
pub use harness::{CoordinatorOptions, CrashMode, RunSummary, Transport};
pub use scenario::WireScenario;
pub use wire::{WireAddr, WireConfig, WireBound, WirePort};
