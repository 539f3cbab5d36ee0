//! Effects emitted by the participant state machine and the report
//! notes that document what happened.

use crate::{Event, Msg};
use caex_action::ActionId;
use caex_net::{NodeId, SimTime};
use caex_tree::Exception;

/// How an object inside a nested action reacts when an exception is
/// raised in a containing action — the two methods of Fig. 1.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NestedStrategy {
    /// Fig. 1(b), the paper's choice: raise an abortion exception in the
    /// nested actions and run their abortion handlers.
    #[default]
    Abort,
    /// Fig. 1(a): wait for the nested actions to complete. Simple but
    /// unbounded — and a deadlock if a nested action has a belated
    /// participant that never arrives.
    Wait,
}

/// How the synchronized exit of an action is coordinated — the paper's
/// "(centralized or decentralized) manager of CA actions" (§4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum LeaveMode {
    /// A centralized manager (the engine) observes every participant
    /// reaching the exit line and grants the joint leave — free of
    /// protocol messages, which matches the paper's accounting.
    #[default]
    Managed,
    /// Decentralized: each participant broadcasts `LeaveReady` when it
    /// reaches the exit line — by completing the action, or at its
    /// handler's end after a resolution — and leaves once it has every
    /// live peer's announcement of the same kind: `N(N−1)` extra
    /// messages per completing action, counted separately from the
    /// §4.4 resolution laws. The port hosts run this mode.
    Distributed,
}

/// An instruction the participant asks its runtime to carry out.
#[derive(Debug, Clone, PartialEq)]
pub enum Effect {
    /// Send a protocol message to a peer.
    Send {
        /// Destination object.
        to: NodeId,
        /// The message.
        msg: Msg,
    },
    /// Deliver `event` back to this participant after `delay` of
    /// virtual time (handler/abortion execution cost).
    After {
        /// Virtual-time delay.
        delay: SimTime,
        /// The continuation event.
        event: Event,
    },
    /// A report note; does not affect the protocol.
    Note(Note),
}

/// Observations recorded while the protocol runs; the engine collects
/// them into the run report.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Note {
    /// An object entered an action.
    Entered {
        /// The entering object.
        object: NodeId,
        /// The entered action.
        action: ActionId,
    },
    /// A belated or suspended object's entry was skipped.
    EnterSkipped {
        /// The object.
        object: NodeId,
        /// The action it could not enter.
        action: ActionId,
    },
    /// An object finished its work in an action and is waiting at the
    /// synchronized exit line for the other participants.
    LeaveRequested {
        /// The waiting object.
        object: NodeId,
        /// The action it wants to leave.
        action: ActionId,
    },
    /// An object completed an action normally.
    Completed {
        /// The completing object.
        object: NodeId,
        /// The completed action.
        action: ActionId,
    },
    /// An exception was raised (locally or as a signalled failure).
    Raised {
        /// The raising object.
        object: NodeId,
        /// The action raised in.
        action: ActionId,
        /// The occurrence.
        exc: Exception,
    },
    /// A raise was suppressed because the object already left the
    /// normal state (one exception per object per action, §4.1).
    RaiseSuppressed {
        /// The object.
        object: NodeId,
        /// The suppressed occurrence.
        exc: Exception,
    },
    /// A message belonging to an eliminated or finished resolution was
    /// discarded.
    StaleMessage {
        /// The receiving object.
        object: NodeId,
        /// The discarded message.
        msg: Msg,
    },
    /// Buffered messages of a nested action were cleaned up after a
    /// `HaveNested` announced its abortion.
    CleanedNestedMessages {
        /// The cleaning object.
        object: NodeId,
        /// The nested action whose messages were dropped.
        action: ActionId,
    },
    /// An object aborted its chain of nested actions (innermost first).
    AbortedNested {
        /// The aborting object.
        object: NodeId,
        /// The action unwound to.
        outer: ActionId,
        /// The aborted chain, innermost first.
        chain: Vec<ActionId>,
    },
    /// Wait strategy: an object is waiting for nested actions instead
    /// of aborting them.
    WaitingForNested {
        /// The waiting object.
        object: NodeId,
        /// The action unwound to.
        outer: ActionId,
        /// The chain being waited for.
        chain: Vec<ActionId>,
        /// `true` if some nested action can never complete (deadlock).
        forever: bool,
    },
    /// An abortion handler's signal from a deeper nested action was
    /// ignored (§4.1: only the directly nested action may signal).
    DeepSignalIgnored {
        /// The object.
        object: NodeId,
        /// The deep action whose signal was dropped.
        action: ActionId,
        /// The dropped exception.
        exc: Exception,
    },
    /// The elected resolver resolved the raised set and committed.
    ResolutionCommitted {
        /// The resolved action.
        action: ActionId,
        /// The elected resolver (max id among raisers).
        resolver: NodeId,
        /// The resolving exception.
        resolved: Exception,
        /// The raised set that entered resolution.
        raised: Vec<(NodeId, Exception)>,
    },
    /// A handler for the resolved exception started at an object.
    HandlerStarted {
        /// The object.
        object: NodeId,
        /// The action whose handler runs.
        action: ActionId,
        /// The handled exception.
        exc: Exception,
        /// The failure exception the handler will signal, if recovery
        /// fails.
        will_signal: Option<Exception>,
    },
    /// A handler signalled a failure exception to the containing action.
    SignalledFailure {
        /// The signalling object.
        object: NodeId,
        /// The failed action.
        action: ActionId,
        /// The signalled exception.
        exc: Exception,
    },
    /// One protocol fan-out (Exception / HaveNested / NestedCompleted /
    /// Commit broadcast to the action's peers). Under the reliable
    /// multicast of §4.5 each fan-out would be a single multicast and
    /// ACKs would disappear; counting fan-outs measures that regime.
    Multicast {
        /// The broadcasting object.
        object: NodeId,
        /// Message kind of the fan-out.
        kind: &'static str,
    },
    /// A peer was detected as crashed (a *deserter*, §2.2's fault
    /// assumption relaxed by the wire transport's failure detector) and
    /// excluded from the resolution: its outstanding ACK / abortion /
    /// leave obligations were waived and its raised exceptions dropped
    /// from `LE` so a live raiser wins the resolver election.
    Deserted {
        /// The surviving object that processed the desertion.
        object: NodeId,
        /// The crashed peer.
        peer: NodeId,
    },
    /// The accrual failure detector suspects a peer (silence beyond the
    /// suspicion threshold φ) without confirming its death: no
    /// obligation is waived, no exclusion happens — a latency spike or
    /// transient partition must not amputate a healthy peer. Either a
    /// [`Note::PeerRejoined`] (the peer returned) or a
    /// [`Note::Deserted`] (the detector confirmed) follows.
    PeerSuspected {
        /// The observing object.
        object: NodeId,
        /// The suspected peer.
        peer: NodeId,
    },
    /// A previously suspected peer was heard from again (the suspicion
    /// flapped — the partition healed). The observer re-forwards any
    /// commit the peer may have missed while unreachable.
    PeerRejoined {
        /// The observing object.
        object: NodeId,
        /// The returning peer.
        peer: NodeId,
    },
    /// The failure detector reported the *elected resolver* of an
    /// in-flight resolution as dead: the survivor drops the deserter's
    /// raised exceptions and (with failover enabled) falls back to the
    /// Exceptional state so a live raiser can be re-elected.
    ResolverSuspected {
        /// The surviving object that lost its resolver.
        object: NodeId,
        /// The action whose resolution lost its resolver.
        action: ActionId,
        /// The dead resolver (the max raiser before pruning).
        peer: NodeId,
    },
    /// A surviving raiser won the re-run election after the original
    /// resolver deserted, and is about to resolve and commit in its
    /// place.
    ResolverReelected {
        /// The action being resolved.
        action: ActionId,
        /// The newly elected resolver (max *live* raiser).
        resolver: NodeId,
        /// The resolver it replaces.
        replaced: NodeId,
    },
    /// A top-level action failed (no containing action to signal to).
    ActionFailed {
        /// The object.
        object: NodeId,
        /// The failed top-level action.
        action: ActionId,
        /// The failure exception.
        exc: Exception,
    },
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_strategy_is_abort() {
        assert_eq!(NestedStrategy::default(), NestedStrategy::Abort);
    }

    #[test]
    fn effects_compare_structurally() {
        let a = Effect::Note(Note::EnterSkipped {
            object: NodeId::new(1),
            action: ActionId::new(2),
        });
        let b = Effect::Note(Note::EnterSkipped {
            object: NodeId::new(1),
            action: ActionId::new(2),
        });
        assert_eq!(a, b);
    }
}
