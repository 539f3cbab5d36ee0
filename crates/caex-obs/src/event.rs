//! The typed event stream: [`ObsEvent`], its [`ObsKind`] taxonomy, the
//! [`Observer`] trait and small composition helpers.
//!
//! Events are emitted by the engines in delivery order, so per-object
//! subsequences are non-decreasing in time; exporters and the metrics
//! registry rely on that.

use caex_action::ActionId;
use caex_net::{NodeId, SimTime};
use caex_tree::ExceptionId;
use std::fmt;

/// The §4.2 participant states as observed from outside.
///
/// `N` is the normal state (no active resolution context); `X` is
/// exceptional, `S` suspended, `R` ready.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum ObsState {
    /// Normal: no resolution context for the object.
    N,
    /// Exceptional: the object raised or adopted an exception.
    X,
    /// Suspended: informed of an exception, waiting for resolution.
    S,
    /// Ready: acknowledged everything, waiting for the commit.
    R,
}

impl fmt::Display for ObsState {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.label())
    }
}

impl ObsState {
    /// The paper's single-letter name of the state.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            ObsState::N => "N",
            ObsState::X => "X",
            ObsState::S => "S",
            ObsState::R => "R",
        }
    }

    /// Parses the single-letter form produced by `Display`.
    #[must_use]
    pub fn parse(s: &str) -> Option<ObsState> {
        match s {
            "N" => Some(ObsState::N),
            "X" => Some(ObsState::X),
            "S" => Some(ObsState::S),
            "R" => Some(ObsState::R),
            _ => None,
        }
    }
}

/// The correlation id carried by every event: the action a span
/// belongs to plus the resolution round within that action.
///
/// Round `0` means "no resolution active" (setup traffic such as
/// action entry). The first raise in an action opens round `1`; every
/// later raise after a commit opens the next round. All events of one
/// resolution — raises, protocol messages, abortions, the commit and
/// the post-commit handlers — share the same `(action, round)` pair
/// across every participant.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct CorrelationId {
    /// The action this event belongs to.
    pub action: ActionId,
    /// The resolution round within `action` (0 = outside resolution).
    pub round: u32,
}

impl fmt::Display for CorrelationId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}#r{}", self.action, self.round)
    }
}

/// What happened. Variants map one-to-one onto the paper's protocol:
/// see `DESIGN.md` for the full taxonomy-to-paper mapping.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ObsKind {
    /// The object entered the action (opens a span on its track).
    ActionEnter,
    /// The object left the action — by commit, completion or abortion
    /// (closes the matching `ActionEnter` span).
    ActionLeave,
    /// The object raised (or adopted via an abortion signal) an
    /// exception in the action.
    Raise {
        /// The raised exception class.
        exception: ExceptionId,
    },
    /// The object's §4.2 state changed.
    StateTransition {
        /// State before the transition.
        from: ObsState,
        /// State after the transition.
        to: ObsState,
    },
    /// A resolution round opened (first raise of the round).
    ResolutionStart,
    /// The round elected its resolver (the highest-numbered raiser).
    ResolverElected {
        /// The elected resolver.
        resolver: NodeId,
    },
    /// The resolver committed the round.
    ResolutionCommit {
        /// The resolved (covering) exception.
        resolved: ExceptionId,
        /// How many concurrent exceptions the round resolved.
        raised: u32,
    },
    /// The object started aborting its nested actions (opens a span).
    AbortionStart {
        /// How many nested actions the abortion unwinds.
        depth: u32,
    },
    /// The object finished aborting (closes the abortion span).
    AbortionEnd,
    /// The object started its handler for the resolved exception
    /// (opens a span).
    HandlerStart {
        /// The exception being handled.
        exception: ExceptionId,
    },
    /// The handler finished (closes the handler span).
    HandlerEnd {
        /// `true` if the handler signalled a failure exception to the
        /// enclosing context instead of recovering.
        signalled: bool,
    },
    /// The object sent a protocol message.
    MessageSent {
        /// The wire kind (`"exception"`, `"ack"`, `"commit"`, …).
        kind: &'static str,
        /// The destination object.
        to: NodeId,
    },
    /// The object received (and is about to process) a protocol
    /// message. Paired with the sender's [`ObsKind::MessageSent`] by
    /// causal analysis: the k-th receive of a `(from, to, kind)`
    /// triple matches the k-th send, which is exact under the §4.2
    /// FIFO-channel assumption.
    MessageReceived {
        /// The wire kind (`"exception"`, `"ack"`, `"commit"`, …).
        kind: &'static str,
        /// The sending object.
        from: NodeId,
    },
    /// The action failed at this object (failure signalled out of the
    /// outermost context).
    ActionFailed {
        /// The failure exception.
        exception: ExceptionId,
    },
    /// The failure detector reported the round's elected resolver dead
    /// at this object: its raised exceptions become ghost entries and
    /// a surviving raiser will re-run the election.
    ResolverSuspected {
        /// The suspected (dead) resolver.
        resolver: NodeId,
    },
    /// A surviving raiser won the re-run election and resolves in the
    /// dead resolver's place.
    ResolverReelected {
        /// The newly elected resolver.
        resolver: NodeId,
        /// The dead resolver it replaces.
        replaced: NodeId,
    },
    /// The accrual failure detector suspects `peer` (silence past the
    /// suspicion threshold φ) without confirming its death — the
    /// two-stage detector's warning level. Feeds the watchdog's flap
    /// accounting; no protocol obligation changes.
    PeerSuspected {
        /// The suspected peer.
        peer: NodeId,
    },
    /// A previously suspected `peer` was heard from again (suspicion
    /// flap / reconnect after a healed partition).
    PeerRejoined {
        /// The returning peer.
        peer: NodeId,
    },
}

impl ObsKind {
    /// A stable lowercase label for the kind (counter keys, JSON).
    #[must_use]
    pub fn label(&self) -> &'static str {
        match self {
            ObsKind::ActionEnter => "action_enter",
            ObsKind::ActionLeave => "action_leave",
            ObsKind::Raise { .. } => "raise",
            ObsKind::StateTransition { .. } => "state_transition",
            ObsKind::ResolutionStart => "resolution_start",
            ObsKind::ResolverElected { .. } => "resolver_elected",
            ObsKind::ResolutionCommit { .. } => "resolution_commit",
            ObsKind::AbortionStart { .. } => "abortion_start",
            ObsKind::AbortionEnd => "abortion_end",
            ObsKind::HandlerStart { .. } => "handler_start",
            ObsKind::HandlerEnd { .. } => "handler_end",
            ObsKind::MessageSent { .. } => "message_sent",
            ObsKind::MessageReceived { .. } => "message_received",
            ObsKind::ActionFailed { .. } => "action_failed",
            ObsKind::ResolverSuspected { .. } => "resolver_suspected",
            ObsKind::ResolverReelected { .. } => "resolver_reelected",
            ObsKind::PeerSuspected { .. } => "peer_suspected",
            ObsKind::PeerRejoined { .. } => "peer_rejoined",
        }
    }
}

/// One observability event.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ObsEvent {
    /// Simulated (or simulated-from-wall) timestamp of the event.
    pub at: SimTime,
    /// Wall-clock microseconds since run start, when the engine has a
    /// real clock (the thread engine); `None` for pure simulations.
    pub wall_micros: Option<u64>,
    /// The participant the event happened at.
    pub object: NodeId,
    /// The `(action, round)` correlation id.
    pub span: CorrelationId,
    /// What happened.
    pub kind: ObsKind,
}

/// The observer interface engines emit into.
///
/// Implementations must tolerate events from several actions and
/// rounds interleaving; the [`CorrelationId`] is the demultiplexer.
pub trait Observer {
    /// Called once per event, in engine delivery order.
    fn on_event(&mut self, event: &ObsEvent);

    /// Called once when the run ends, with the final timestamp; lets
    /// stateful observers close dwell intervals and open spans.
    fn on_run_end(&mut self, at: SimTime) {
        let _ = at;
    }

    /// Whether this observer looks at events at all. Fixed for a run:
    /// an engine may ask once, or before every step, and skip building
    /// events when it reads `false`. The default is `true`.
    fn observes(&self) -> bool {
        true
    }
}

/// The null observer: every event is dropped. `run()` delegates to
/// `run_observed(…, &mut ())`, and since `()` does not observe, the
/// engines' observed step applies each event to its participant and
/// builds no snapshot, no [`ObsEvent`] and no round bookkeeping.
impl Observer for () {
    fn on_event(&mut self, _event: &ObsEvent) {}

    fn observes(&self) -> bool {
        false
    }
}

/// An observer that records every event for later export or assertion.
#[derive(Debug, Default)]
pub struct Recorder {
    /// The recorded events, in arrival order.
    pub events: Vec<ObsEvent>,
    /// The end-of-run timestamp, once `on_run_end` has fired.
    pub finished_at: Option<SimTime>,
}

impl Recorder {
    /// Creates an empty recorder.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }
}

impl Observer for Recorder {
    fn on_event(&mut self, event: &ObsEvent) {
        self.events.push(event.clone());
    }

    fn on_run_end(&mut self, at: SimTime) {
        self.finished_at = Some(at);
    }
}

/// Fans one event stream out to several observers, so a run can feed
/// the metrics registry, an exporter and the watchdog at once.
#[derive(Default)]
pub struct Tee<'a> {
    observers: Vec<&'a mut dyn Observer>,
}

impl<'a> Tee<'a> {
    /// Creates an empty tee.
    #[must_use]
    pub fn new() -> Self {
        Self { observers: Vec::new() }
    }

    /// Adds an observer to the fan-out (builder form).
    #[must_use]
    pub fn with(mut self, observer: &'a mut dyn Observer) -> Self {
        self.observers.push(observer);
        self
    }

    /// Adds an observer to the fan-out.
    pub fn push(&mut self, observer: &'a mut dyn Observer) {
        self.observers.push(observer);
    }
}

impl fmt::Debug for Tee<'_> {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Tee")
            .field("observers", &self.observers.len())
            .finish()
    }
}

impl Observer for Tee<'_> {
    fn on_event(&mut self, event: &ObsEvent) {
        for obs in &mut self.observers {
            obs.on_event(event);
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        for obs in &mut self.observers {
            obs.on_run_end(at);
        }
    }

    fn observes(&self) -> bool {
        self.observers.iter().any(|obs| obs.observes())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ev(kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(7),
            wall_micros: None,
            object: NodeId::new(1),
            span: CorrelationId { action: ActionId::new(0), round: 1 },
            kind,
        }
    }

    #[test]
    fn correlation_id_display() {
        let id = CorrelationId { action: ActionId::new(2), round: 3 };
        assert_eq!(id.to_string(), "A2#r3");
    }

    #[test]
    fn state_round_trips_through_display() {
        for s in [ObsState::N, ObsState::X, ObsState::S, ObsState::R] {
            assert_eq!(ObsState::parse(&s.to_string()), Some(s));
        }
        assert_eq!(ObsState::parse("Q"), None);
    }

    #[test]
    fn recorder_records_and_tee_fans_out() {
        let mut a = Recorder::new();
        let mut b = Recorder::new();
        {
            let mut tee = Tee::new().with(&mut a).with(&mut b);
            tee.on_event(&ev(ObsKind::ActionEnter));
            tee.on_event(&ev(ObsKind::ActionLeave));
            tee.on_run_end(SimTime::from_micros(9));
        }
        assert_eq!(a.events.len(), 2);
        assert_eq!(b.events.len(), 2);
        assert_eq!(a.finished_at, Some(SimTime::from_micros(9)));
        assert_eq!(a.events[0].kind.label(), "action_enter");
    }

    #[test]
    fn only_the_null_observer_and_a_tee_of_them_do_not_observe() {
        let (mut quiet, mut also_quiet, mut rec) = ((), (), Recorder::new());
        assert!(!quiet.observes());
        assert!(rec.observes());
        assert!(!Tee::new().observes());
        assert!(!Tee::new().with(&mut quiet).with(&mut also_quiet).observes());
        assert!(Tee::new().with(&mut quiet).with(&mut rec).observes());
    }
}
