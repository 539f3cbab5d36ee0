//! The protocol messages of §4.1 and the local events that drive
//! scenarios.

use caex_action::ActionId;
use caex_net::{Kinded, NodeId};
use caex_tree::Exception;
use std::fmt;

/// The five message types of the resolution protocol (§4.1, verbatim):
///
/// - [`Msg::Exception`] — "sent by object `Oi` to all participating
///   objects of Action `A` when an exception `E` is raised within it";
/// - [`Msg::HaveNested`] — "sent by each object `Oi` that is in a nested
///   action of Action `A` …, and `Oi` then starts abortion of nested
///   actions";
/// - [`Msg::NestedCompleted`] — "informs them of the exception `E` which
///   may be signalled by abortion handlers of a nested CA action";
/// - [`Msg::Ack`] — "sent … to the object which sent either the message
///   Exception or NestedCompleted to it earlier";
/// - [`Msg::Commit`] — "sent by a chosen object to all participating
///   objects after it completes resolution of all exceptions".
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Msg {
    /// `Exception(A, Oi, E)`.
    Exception {
        /// The action the exception was raised in.
        action: ActionId,
        /// The raising object.
        from: NodeId,
        /// The raised exception occurrence.
        exc: Exception,
    },
    /// `HaveNested(Oi, A)`.
    HaveNested {
        /// The object about to abort its nested actions.
        from: NodeId,
        /// The action the abortion unwinds to.
        action: ActionId,
    },
    /// `NestedCompleted(A, Oi, E)`; `exc` is the exception signalled by
    /// the abortion handlers of the directly nested action, if any.
    NestedCompleted {
        /// The action the abortion unwound to.
        action: ActionId,
        /// The object whose nested abortion completed.
        from: NodeId,
        /// Exception signalled by abortion handlers (the paper's
        /// possibly-null `E`).
        exc: Option<Exception>,
    },
    /// `ACK(Oi)`, tagged with the action of the acknowledged message so
    /// stale acknowledgements from an eliminated nested resolution can
    /// never satisfy an outer resolution's accounting.
    Ack {
        /// The acknowledging object.
        from: NodeId,
        /// Action of the `Exception`/`NestedCompleted` being
        /// acknowledged.
        action: ActionId,
    },
    /// `Commit(E)` from the elected resolver. Carries the committing
    /// resolver's identity so receivers can fence a "zombie" resolver:
    /// a commit from an object the failure detector already reported
    /// dead is discarded, preventing a resumed (SIGCONT) or restarted
    /// resolver's late decision from splitting the outcome.
    Commit {
        /// The resolved action.
        action: ActionId,
        /// The committing resolver.
        from: NodeId,
        /// The resolving exception whose handlers everyone starts.
        exc: Exception,
    },
    /// Decentralized synchronized leave (the paper's "decentralized
    /// manager" option, §4): an object announces it has reached the
    /// action's exit line; everyone leaves once all announcements are
    /// in. Not part of the §4.4 message counts (the paper assumes the
    /// manager provides synchronous leave).
    LeaveReady {
        /// The announcing object.
        from: NodeId,
        /// The action being left.
        action: ActionId,
    },
}

impl Msg {
    /// The action this message pertains to.
    #[must_use]
    pub fn action(&self) -> ActionId {
        match self {
            Msg::Exception { action, .. }
            | Msg::HaveNested { action, .. }
            | Msg::NestedCompleted { action, .. }
            | Msg::Ack { action, .. }
            | Msg::Commit { action, .. }
            | Msg::LeaveReady { action, .. } => *action,
        }
    }

    /// The object this message speaks for — used to fence messages from
    /// reported deserters. For [`Msg::Exception`] this is the *original
    /// raiser* (a live peer's crash-recovery probe retransmits another
    /// raiser's exception verbatim); for [`Msg::Commit`] it is the
    /// committing resolver.
    #[must_use]
    pub fn sender(&self) -> NodeId {
        match self {
            Msg::Exception { from, .. }
            | Msg::HaveNested { from, .. }
            | Msg::NestedCompleted { from, .. }
            | Msg::Ack { from, .. }
            | Msg::Commit { from, .. }
            | Msg::LeaveReady { from, .. } => *from,
        }
    }
}

impl Kinded for Msg {
    fn kind(&self) -> &'static str {
        match self {
            Msg::Exception { .. } => "exception",
            Msg::HaveNested { .. } => "have_nested",
            Msg::NestedCompleted { .. } => "nested_completed",
            Msg::Ack { .. } => "ack",
            Msg::Commit { .. } => "commit",
            Msg::LeaveReady { .. } => "leave_ready",
        }
    }

    fn action_index(&self) -> Option<u32> {
        Some(self.action().index())
    }
}

impl fmt::Display for Msg {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Msg::Exception { action, from, exc } => {
                write!(f, "Exception({action}, {from}, {})", exc.id())
            }
            Msg::HaveNested { from, action } => write!(f, "HaveNested({from}, {action})"),
            Msg::NestedCompleted { action, from, exc } => match exc {
                Some(e) => write!(f, "NestedCompleted({action}, {from}, {})", e.id()),
                None => write!(f, "NestedCompleted({action}, {from}, null)"),
            },
            Msg::Ack { from, action } => write!(f, "ACK({from}, {action})"),
            Msg::Commit { action, from, exc } => {
                write!(f, "Commit({action}, {from}, {})", exc.id())
            }
            Msg::LeaveReady { from, action } => write!(f, "LeaveReady({from}, {action})"),
        }
    }
}

/// Everything a participant can be handed: a protocol message or a local
/// event (scenario step or internally scheduled continuation).
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub enum Event {
    /// A protocol message from another participant.
    Msg(Msg),
    /// Scenario: raise this exception in the object's active action.
    Raise(Exception),
    /// Scenario: enter the given (nested) action.
    Enter(ActionId),
    /// Scenario: the object finishes its work in the given action and
    /// waits at the exit line (leave is synchronous, §2.2/§4.2: "leave
    /// `A` synchronously").
    Complete(ActionId),
    /// Internal: every participant reached the exit line; the action
    /// manager grants the synchronized leave.
    LeaveGranted(ActionId),
    /// Internal: the abortion handlers scheduled at an abortion trigger
    /// have finished executing (their virtual cost elapsed).
    AbortionDone {
        /// The action the abortion unwound to (the resolving action).
        action: ActionId,
        /// Exception signalled by the directly nested action's abortion
        /// handler, if any.
        signal: Option<Exception>,
        /// Abortion generation at scheduling time; a continuation whose
        /// epoch no longer matches was superseded by a more-outer
        /// abortion and is ignored.
        epoch: u64,
    },
    /// Internal: a committed handler finished; if it signalled, raise
    /// the failure exception in the containing action.
    HandlerDone {
        /// The action whose handler ran.
        action: ActionId,
        /// Failure exception to signal to the containing action.
        signal: Option<Exception>,
    },
    /// Internal: the failure detector reports `peer` as dead. Engines
    /// schedule one per survivor some detection delay after a planned
    /// crash; the participant waives the peer's obligations
    /// (see [`Participant::deserters`](crate::Participant::deserters))
    /// and, with failover enabled, re-elects a live resolver.
    DeserterSuspected {
        /// The object the failure detector gave up on.
        peer: NodeId,
    },
    /// Internal: the accrual failure detector *suspects* `peer` (φ
    /// crossed the suspicion threshold) but has not confirmed its
    /// death. Informational: the participant records the suspicion
    /// ([`Participant::suspects`](crate::Participant::suspects)) and
    /// waives no obligation.
    PeerSuspected {
        /// The suspected object.
        peer: NodeId,
    },
    /// Internal: a previously suspected `peer` was heard from again
    /// (the partition healed). The participant clears the suspicion and
    /// re-forwards any commit the peer may have missed.
    PeerRejoined {
        /// The returning object.
        peer: NodeId,
    },
}

impl Kinded for Event {
    fn kind(&self) -> &'static str {
        match self {
            Event::Msg(m) => m.kind(),
            Event::Raise(_) => "local_raise",
            Event::Enter(_) => "local_enter",
            Event::Complete(_) => "local_complete",
            Event::LeaveGranted(_) => "local_leave_granted",
            Event::AbortionDone { .. } => "local_abortion_done",
            Event::HandlerDone { .. } => "local_handler_done",
            Event::DeserterSuspected { .. } => "local_deserter_suspected",
            Event::PeerSuspected { .. } => "local_peer_suspected",
            Event::PeerRejoined { .. } => "local_peer_rejoined",
        }
    }

    fn action_index(&self) -> Option<u32> {
        match self {
            Event::Msg(m) => m.action_index(),
            _ => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_tree::ExceptionId;

    fn exc() -> Exception {
        Exception::new(ExceptionId::new(1))
    }

    #[test]
    fn kinds_match_paper_names() {
        let a = ActionId::new(0);
        let o = NodeId::new(1);
        assert_eq!(
            Msg::Exception {
                action: a,
                from: o,
                exc: exc()
            }
            .kind(),
            "exception"
        );
        assert_eq!(Msg::HaveNested { from: o, action: a }.kind(), "have_nested");
        assert_eq!(
            Msg::NestedCompleted {
                action: a,
                from: o,
                exc: None
            }
            .kind(),
            "nested_completed"
        );
        assert_eq!(Msg::Ack { from: o, action: a }.kind(), "ack");
        assert_eq!(
            Msg::Commit {
                action: a,
                from: o,
                exc: exc()
            }
            .kind(),
            "commit"
        );
    }

    #[test]
    fn action_accessor_covers_all_variants() {
        let a = ActionId::new(7);
        let o = NodeId::new(0);
        let msgs = [
            Msg::Exception {
                action: a,
                from: o,
                exc: exc(),
            },
            Msg::HaveNested { from: o, action: a },
            Msg::NestedCompleted {
                action: a,
                from: o,
                exc: Some(exc()),
            },
            Msg::Ack { from: o, action: a },
            Msg::Commit {
                action: a,
                from: o,
                exc: exc(),
            },
            Msg::LeaveReady { from: o, action: a },
        ];
        for m in msgs {
            assert_eq!(m.action(), a);
        }
    }

    #[test]
    fn leave_ready_kind_and_display() {
        let m = Msg::LeaveReady {
            from: NodeId::new(3),
            action: ActionId::new(1),
        };
        assert_eq!(m.kind(), "leave_ready");
        assert_eq!(m.to_string(), "LeaveReady(O3, A1)");
    }

    #[test]
    fn event_kind_delegates_for_messages() {
        let e = Event::Msg(Msg::Ack {
            from: NodeId::new(0),
            action: ActionId::new(0),
        });
        assert_eq!(e.kind(), "ack");
        assert_eq!(Event::Raise(exc()).kind(), "local_raise");
    }

    #[test]
    fn display_renders_paper_notation() {
        let m = Msg::Exception {
            action: ActionId::new(1),
            from: NodeId::new(2),
            exc: exc(),
        };
        assert_eq!(m.to_string(), "Exception(A1, O2, e1)");
        let n = Msg::NestedCompleted {
            action: ActionId::new(1),
            from: NodeId::new(3),
            exc: None,
        };
        assert!(n.to_string().contains("null"));
    }
}
