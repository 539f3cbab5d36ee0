//! Distributed resolution of concurrent exceptions in nested CA
//! actions — a Rust reproduction of *Exception Handling and Resolution
//! in Distributed Object-Oriented Systems* (A. Romanovsky, J. Xu and
//! B. Randell; Newcastle TR 542, ICDCS 1996).
//!
//! When several objects cooperating inside a **coordinated atomic (CA)
//! action** raise exceptions concurrently, someone has to decide which
//! single exception the whole action recovers from. The paper's
//! algorithm does this with `O(N²)` messages: raisers broadcast
//! `Exception`, objects caught inside nested actions announce
//! `HaveNested`, abort innermost-first and report `NestedCompleted`
//! (possibly signalling an abortion exception), everything is
//! acknowledged, and the highest-numbered raiser resolves the collected
//! set against the action's **exception tree** and broadcasts `Commit`.
//!
//! # Pseudocode-to-code map
//!
//! Every clause of the paper's §4.2 algorithm has a direct counterpart
//! in [`Participant`] (`crates/caex/src/participant.rs`). Besides `SA`
//! and the resolution context, a participant keeps one record per
//! action whose lifecycle is `Buffered` (not entered, belated messages
//! held) → `Entered { exit: Open | Deferred | Requested }` → `Completed`
//! or `Aborted`; the rows name the transitions:
//!
//! | §4.2 pseudocode | implementation |
//! |---|---|
//! | `S(Oi) := N; empty LE, LO, LP, SA` | `Participant::new` (no records; the `N` state is `res == None`) |
//! | `if Oi enters A then <A> → SA; process messages having arrived` | `on_enter` (pushes `entered`; `Buffered` → `Entered`, the held messages replay through `on_msg`) |
//! | `if Oi completes A then delete last element in SA; leave A synchronously` | `on_complete` (exit line: `Open` → `Requested` under `LeaveReady`-distributed leave, `Deferred` under a deeper exit line) / `on_leave_granted` (joint leave: pops `entered`, `Entered` → `Completed`, replays a `Deferred` parent); a handler's end completes its action in `on_handler_done` |
//! | `if Ei is raised in Oi then S(Oi) := X; <A,Oi,Ei> → LE; Exception ⇒ all Oj in G_A` | `on_raise` → `raise_in` |
//! | `if Oi receives Exception or HaveNested then if Oi is in the action nested within A then HaveNested ⇒ all; abort all nested actions until A; empty LE, LO, LP; NestedCompleted(A,Oi,Ei) ⇒ all; …` | the trigger check in `on_msg` → `trigger_abortion` (innermost-first handler execution, §4.1 signal masking, each nested `Entered` → `Aborted`; the `Wait` strategy variant → `Completed`) → `on_abortion_done` |
//! | `if Oi received Exception then <A,Oj,Ej> → LE; ACK ⇒ Oj` | the `Msg::Exception` arm of `on_msg` (`Resolution::ack`: deferred while aborting, per Example 2's narration) |
//! | `else <Oj, A> → LO; clean up messages related to nested actions` | the `Msg::HaveNested` arm (`Buffered` actions nested in `A` → `Aborted`, their messages dropped) |
//! | `if Oi receives NestedCompleted then ACK ⇒ Oj; if Ej ≠ null then <A,Oj,Ej> → LE` | the `Msg::NestedCompleted` arm (`Resolution::ack`) |
//! | `if Oi receives ACK then <Oj> → LP` | the `Msg::Ack` arm (`pending_acks` is the complement of `LP`) |
//! | `if S(Oi) = X and NestedCompleted from all in LO and ACK from all in G_A then S(Oi) := R` | the guard in `check_ready` |
//! | `if S(Oi) = R and Oi has the biggest number among all objects that raised exceptions then resolve LE; commit(E) ⇒ all; start handler` | the election + resolve + fan-out in `check_ready` (generalised to resolver groups) |
//! | `if Oi receives commit(E) then empty LE, LO, LP; start handler for E` | `accept_commit` (records the committed exception beside the lifecycle; duplicates absorbed as stale) |
//!
//! # Crate layout
//!
//! - [`Participant`] — the §4.2 state machine (states `N/X/S/R`, lists
//!   `LE/LO/LP`, stack `SA`), pure and transport-agnostic;
//! - [`Script`] — what a run executes (action structure, timeline,
//!   per-participant settings) and the one place a participant is
//!   configured from it ([`Script::participant`]), shared by every host;
//! - [`Scenario`]/[`RunReport`] and [`shard::FleetEngine`] — scripted
//!   executions over the deterministic [`caex_net::SimNet`] simulator:
//!   two front-ends (one script; a fleet of scripts admitted into
//!   slots) of one crate-private simulator host;
//! - [`ThreadRunner`](thread_engine::ThreadRunner) — the same
//!   [`Scenario`] on real threads over in-process channels, driven by
//!   [`drive`];
//! - [`ObsBridge`] — the observed step (`ObsBridge::handle`) every host
//!   applies events through, failure-detector reports included;
//! - [`workloads`] — the paper's canonical workloads (§4.4 cases, §4.3
//!   examples);
//! - [`analysis`] — the closed-form §4.4 message-count laws;
//! - [`central`] and [`cr`] — the fixed-coordinator baseline and the
//!   Campbell–Randell 1986 scheme the paper improves on, machines on
//!   the same simulator host.
//!
//! # Quick example
//!
//! Example 1 of the paper (§4.3): three objects, two concurrent
//! exceptions, the higher-numbered raiser resolves.
//!
//! ```
//! use caex::workloads;
//! use caex_net::NodeId;
//!
//! let (workload, ids) = workloads::example1(Default::default());
//! let report = workload.run();
//!
//! let resolution = report.resolution_for(ids.a1).unwrap();
//! assert_eq!(resolution.resolver, NodeId::new(2));
//! assert!(report.is_clean());
//! // §4.4 case-style accounting: every message is counted by kind.
//! assert_eq!(report.messages_of("commit"), 2);
//! ```


pub mod analysis;
pub mod arche;
pub mod central;
pub mod codec;
pub mod cr;
pub mod drive;
pub mod explore;
pub mod obs;
pub mod program;
pub mod shard;
pub mod thread_engine;
pub mod workloads;

mod effect;
mod engine;
mod host;
mod message;
mod participant;
mod script;

pub use effect::{Effect, LeaveMode, NestedStrategy, Note};
pub use engine::{HandlerStart, ResolutionRecord, RunReport, Scenario};
pub use host::{route, ExitLines, Outbox};
pub use message::{Event, Msg};
pub use obs::ObsBridge;
pub use participant::{PState, Participant, Silence};
pub use script::Script;
