//! [`Watchdog`]: an observer that checks protocol invariants as the
//! event stream passes, flagging state-machine violations live rather
//! than post-hoc.
//!
//! Checked invariants:
//!
//! 1. **State edges** — only the §4.2 transitions reachable under
//!    pre/post sampling of `Participant::handle` are legal:
//!    `N→X`, `N→S`, `S→X`, `S→N`, `X→S`, `X→R`, `X→N`, `R→N`, `R→S`.
//!    Anything else (e.g. `R→X`: a ready object re-raising before the
//!    commit) is a violation.
//! 2. **Commit during abortion** — a handler must never start while
//!    the object's abortion span is still open: the resolver cannot
//!    have been ready while an `LO` entry was incomplete.
//! 3. **ACK overflow** — a participant can collect at most `N−1` ACKs
//!    per broadcast it made in a round; more means a peer acked twice
//!    or a stale ack leaked through.
//! 4. **Span balance** — `ActionLeave`, `AbortionEnd` and `HandlerEnd`
//!    must close a matching open span on the same object.
//! 5. **Commit multiplicity** — at most `expected_commits` resolvers
//!    may commit one round (1 unless a resolver group is configured).
//! 6. **§4.5 multicast law** (opt-in, [`Watchdog::with_multicast_law`])
//!    — per round, every protocol fan-out must reach all `N−1` peers
//!    exactly once, every `HaveNested` announcer must also send
//!    `NestedCompleted`, and the number of fan-outs must equal the
//!    paper's `P + 2Q + 1` bound (checked at `on_run_end`, when the
//!    round's `P` raisers and `Q` aborters are known).

use crate::event::{ObsEvent, ObsKind, ObsState, Observer};
use caex_action::ActionId;
use caex_net::{NodeId, SimTime};
use std::collections::{BTreeMap, BTreeSet, HashMap};
use std::fmt;

/// One invariant violation, with the offending event's coordinates.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Violation {
    /// Microsecond timestamp of the offending event.
    pub at_us: u64,
    /// The object the violation was observed at.
    pub object: NodeId,
    /// Human-readable description.
    pub message: String,
}

impl fmt::Display for Violation {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}µs] {}: {}", self.at_us, self.object, self.message)
    }
}

/// The invariant-checking observer. Collects [`Violation`]s; a clean
/// run ends with [`Watchdog::is_clean`] true.
#[derive(Debug)]
pub struct Watchdog {
    expected_commits: u64,
    violations: Vec<Violation>,
    state: HashMap<NodeId, ObsState>,
    participants: HashMap<ActionId, BTreeSet<NodeId>>,
    // (action, round, receiver) -> acks seen so far
    acks_to: HashMap<(ActionId, u32, NodeId), u64>,
    // (action, round, sender) -> ack-expecting broadcasts (exception /
    // nested_completed multicast fan-out, counted per destination and
    // divided by N−1 is fragile; count multicast *starts* instead by
    // first destination of a burst).
    broadcasts: HashMap<(ActionId, u32, NodeId), BroadcastTally>,
    commits: HashMap<(ActionId, u32), u64>,
    open_actions: HashMap<NodeId, u64>,
    open_abortions: HashMap<NodeId, u64>,
    open_handlers: HashMap<NodeId, u64>,
    check_multicast_law: bool,
    // (action, round) -> (sender, kind) -> distinct destinations of
    // that sender's fan-out. Only the four broadcast kinds are tracked.
    fanouts: BTreeMap<(ActionId, u32), BTreeMap<(NodeId, &'static str), BTreeSet<NodeId>>>,
    // (observer, suspected peer) pairs with no rejoin (or confirmation)
    // yet — pairs the two-stage detector's Suspected/Rejoined events.
    open_suspicions: BTreeSet<(NodeId, NodeId)>,
}

/// Per-(round, sender) tally of ack-expecting sends, grouped into
/// broadcasts of `N−1` messages each.
#[derive(Debug, Default)]
struct BroadcastTally {
    sends: u64,
}

const LEGAL_EDGES: [(ObsState, ObsState); 9] = [
    (ObsState::N, ObsState::X),
    (ObsState::N, ObsState::S),
    (ObsState::S, ObsState::X),
    (ObsState::S, ObsState::N),
    (ObsState::X, ObsState::S),
    (ObsState::X, ObsState::R),
    (ObsState::X, ObsState::N),
    (ObsState::R, ObsState::N),
    (ObsState::R, ObsState::S),
];

impl Default for Watchdog {
    fn default() -> Self {
        Watchdog::new()
    }
}

impl Watchdog {
    /// Creates a watchdog expecting a single resolver per round.
    #[must_use]
    pub fn new() -> Self {
        Watchdog {
            expected_commits: 1,
            violations: Vec::new(),
            state: HashMap::new(),
            participants: HashMap::new(),
            acks_to: HashMap::new(),
            broadcasts: HashMap::new(),
            commits: HashMap::new(),
            open_actions: HashMap::new(),
            open_abortions: HashMap::new(),
            open_handlers: HashMap::new(),
            check_multicast_law: false,
            fanouts: BTreeMap::new(),
            open_suspicions: BTreeSet::new(),
        }
    }

    /// Allows up to `count` commits per round (resolver groups).
    #[must_use]
    pub fn with_expected_commits(mut self, count: u64) -> Self {
        self.expected_commits = count.max(1);
        self
    }

    /// Enables the §4.5 multicast-law check: per resolution round,
    /// each fan-out must reach every peer exactly once and the round's
    /// fan-out count must equal `P + 2Q + C` (`P` raisers, `Q`
    /// aborters, `C = expected_commits`) — the paper's "p+2q+1
    /// multicasts" accounting under reliable multicast. Verified in
    /// [`Observer::on_run_end`], once the round is complete. Do not
    /// enable for runs with injected crashes: a deserter legitimately
    /// truncates fan-outs.
    #[must_use]
    pub fn with_multicast_law(mut self) -> Self {
        self.check_multicast_law = true;
        self
    }

    /// The violations recorded so far.
    #[must_use]
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` iff no invariant has been violated.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.violations.is_empty()
    }

    fn flag(&mut self, event: &ObsEvent, message: String) {
        self.violations.push(Violation {
            at_us: event.at.as_micros(),
            object: event.object,
            message,
        });
    }
}

impl Observer for Watchdog {
    fn on_event(&mut self, event: &ObsEvent) {
        let object = event.object;
        match &event.kind {
            ObsKind::ActionEnter => {
                self.participants
                    .entry(event.span.action)
                    .or_default()
                    .insert(object);
                *self.open_actions.entry(object).or_insert(0) += 1;
            }
            ObsKind::ActionLeave => {
                let open = self.open_actions.entry(object).or_insert(0);
                if *open == 0 {
                    self.flag(
                        event,
                        format!(
                            "ActionLeave for {} with no open action span",
                            event.span.action
                        ),
                    );
                } else {
                    *open -= 1;
                }
            }
            ObsKind::StateTransition { from, to } => {
                let known = self.state.get(&object).copied().unwrap_or(ObsState::N);
                if known != *from {
                    self.flag(
                        event,
                        format!(
                            "transition {from}\u{2192}{to} but {object} was last \
                             observed in {known}"
                        ),
                    );
                }
                if !LEGAL_EDGES.contains(&(*from, *to)) {
                    self.flag(
                        event,
                        format!("illegal state transition {from}\u{2192}{to}"),
                    );
                }
                self.state.insert(object, *to);
            }
            ObsKind::AbortionStart { .. } => {
                *self.open_abortions.entry(object).or_insert(0) += 1;
            }
            ObsKind::AbortionEnd => {
                let open = self.open_abortions.entry(object).or_insert(0);
                if *open == 0 {
                    self.flag(event, "AbortionEnd with no open abortion".to_owned());
                } else {
                    *open -= 1;
                }
            }
            ObsKind::HandlerStart { .. } => {
                if self.open_abortions.get(&object).copied().unwrap_or(0) > 0 {
                    self.flag(
                        event,
                        format!(
                            "commit delivered to {object} while its abortion is \
                             still in progress (LO incomplete)"
                        ),
                    );
                }
                *self.open_handlers.entry(object).or_insert(0) += 1;
            }
            ObsKind::HandlerEnd { .. } => {
                let open = self.open_handlers.entry(object).or_insert(0);
                if *open == 0 {
                    self.flag(event, "HandlerEnd with no open handler".to_owned());
                } else {
                    *open -= 1;
                }
            }
            ObsKind::ResolutionCommit { .. } => {
                if event.span.round > 0 {
                    let commits = self
                        .commits
                        .entry((event.span.action, event.span.round))
                        .or_insert(0);
                    *commits += 1;
                    if *commits > self.expected_commits {
                        let total = *commits;
                        self.flag(
                            event,
                            format!(
                                "{} committed {total} times (expected at most {})",
                                event.span, self.expected_commits
                            ),
                        );
                    }
                }
            }
            ObsKind::MessageSent { kind, to } => {
                if event.span.round == 0 {
                    return;
                }
                let action = event.span.action;
                let round = event.span.round;
                if self.check_multicast_law
                    && matches!(
                        *kind,
                        "exception" | "have_nested" | "nested_completed" | "commit"
                    )
                {
                    let dests = self
                        .fanouts
                        .entry((action, round))
                        .or_default()
                        .entry((object, *kind))
                        .or_default();
                    if !dests.insert(*to) {
                        let span = event.span;
                        self.flag(
                            event,
                            format!("{object} multicast {kind} to {to} twice in {span}"),
                        );
                    }
                }
                // Broadcasts that expect an ACK per peer.
                if matches!(*kind, "exception" | "nested_completed") {
                    self.broadcasts
                        .entry((action, round, object))
                        .or_default()
                        .sends += 1;
                }
                if *kind == "ack" {
                    let n = self
                        .participants
                        .get(&action)
                        .map_or(0, |set| set.len() as u64);
                    let peers = n.saturating_sub(1);
                    let received = self
                        .acks_to
                        .entry((action, round, *to))
                        .or_insert(0);
                    *received += 1;
                    let broadcasts = self
                        .broadcasts
                        .get(&(action, round, *to))
                        .map_or(0, |b| {
                            if peers == 0 {
                                0
                            } else {
                                b.sends.div_ceil(peers)
                            }
                        });
                    let allowed = peers * broadcasts.max(1);
                    if peers > 0 && *received > allowed {
                        let received = *received;
                        self.flag(
                            event,
                            format!(
                                "{to} has been sent {received} ACKs in {} but made \
                                 {broadcasts} broadcast(s) of N\u{2212}1 = {peers}: \
                                 at most {allowed} are legal",
                                event.span
                            ),
                        );
                    }
                }
            }
            ObsKind::PeerSuspected { peer } => {
                self.open_suspicions.insert((object, *peer));
            }
            ObsKind::PeerRejoined { peer } => {
                // A rejoin must answer an open suspicion at the same
                // observer: an unpaired one means the two-stage
                // detector skipped its Suspected level.
                if !self.open_suspicions.remove(&(object, *peer)) {
                    self.flag(
                        event,
                        format!("{object} saw {peer} rejoin without suspecting it first"),
                    );
                }
            }
            // Receives carry no protocol obligations of their own; the
            // matching-send invariant is causal analysis' job. The
            // failover events are informational here — crash runs must
            // not enable the multicast law in the first place (a
            // deserter legitimately truncates fan-outs).
            ObsKind::Raise { .. }
            | ObsKind::ResolutionStart
            | ObsKind::ResolverElected { .. }
            | ObsKind::MessageReceived { .. }
            | ObsKind::ActionFailed { .. }
            | ObsKind::ResolverSuspected { .. }
            | ObsKind::ResolverReelected { .. } => {}
        }
    }

    fn on_run_end(&mut self, at: SimTime) {
        if !self.check_multicast_law {
            return;
        }
        let at_us = at.as_micros();
        let mut end_violations = Vec::new();
        for ((action, round), bursts) in &self.fanouts {
            let span = format!("{action}#r{round}");
            let peers = self
                .participants
                .get(action)
                .map_or(0, |set| set.len().saturating_sub(1));
            // Every fan-out must be a full multicast: N−1 distinct
            // destinations.
            for ((sender, kind), dests) in bursts {
                if dests.len() != peers {
                    end_violations.push(Violation {
                        at_us,
                        object: *sender,
                        message: format!(
                            "{span}: {sender}'s {kind} fan-out reached {} of N\u{2212}1 = \
                             {peers} peers",
                            dests.len()
                        ),
                    });
                }
            }
            // Every announced abortion must complete.
            let senders_of = |kind: &str| -> BTreeSet<NodeId> {
                bursts
                    .keys()
                    .filter(|(_, k)| *k == kind)
                    .map(|(s, _)| *s)
                    .collect()
            };
            let raisers = senders_of("exception");
            let have_nested = senders_of("have_nested");
            let completed = senders_of("nested_completed");
            let committers = senders_of("commit");
            if have_nested != completed {
                end_violations.push(Violation {
                    at_us,
                    object: NodeId::new(0),
                    message: format!(
                        "{span}: HaveNested announcers {have_nested:?} \u{2260} \
                         NestedCompleted senders {completed:?}"
                    ),
                });
            }
            // The §4.5 count: P + 2Q + C multicasts per round.
            let (p, q, c) = (raisers.len(), have_nested.len(), committers.len());
            let expected =
                p + 2 * q + usize::try_from(self.expected_commits).unwrap_or(usize::MAX);
            let actual = bursts.len();
            if actual != expected || c as u64 != self.expected_commits {
                end_violations.push(Violation {
                    at_us,
                    object: NodeId::new(0),
                    message: format!(
                        "{span}: {actual} multicasts with P = {p} raisers, Q = {q} \
                         aborters, {c} commit(s); \u{00a7}4.5 predicts P+2Q+{} = {expected}",
                        self.expected_commits
                    ),
                });
            }
        }
        self.violations.extend(end_violations);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::event::CorrelationId;
    use caex_net::SimTime;
    use caex_tree::ExceptionId;

    fn ev(object: u32, round: u32, kind: ObsKind) -> ObsEvent {
        ObsEvent {
            at: SimTime::from_micros(1),
            wall_micros: None,
            object: NodeId::new(object),
            span: CorrelationId { action: ActionId::new(0), round },
            kind,
        }
    }

    #[test]
    fn clean_stream_stays_clean() {
        let mut dog = Watchdog::new();
        dog.on_event(&ev(0, 0, ObsKind::ActionEnter));
        dog.on_event(&ev(1, 0, ObsKind::ActionEnter));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::StateTransition { from: ObsState::N, to: ObsState::X },
        ));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::MessageSent { kind: "exception", to: NodeId::new(1) },
        ));
        dog.on_event(&ev(
            1,
            1,
            ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) },
        ));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::ResolutionCommit { resolved: ExceptionId::new(1), raised: 1 },
        ));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::StateTransition { from: ObsState::X, to: ObsState::N },
        ));
        assert!(dog.is_clean(), "{:?}", dog.violations());
    }

    #[test]
    fn illegal_edge_is_flagged() {
        let mut dog = Watchdog::new();
        dog.on_event(&ev(
            0,
            1,
            ObsKind::StateTransition { from: ObsState::N, to: ObsState::X },
        ));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::StateTransition { from: ObsState::X, to: ObsState::R },
        ));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::StateTransition { from: ObsState::R, to: ObsState::X },
        ));
        assert_eq!(dog.violations().len(), 1);
        assert!(dog.violations()[0].message.contains("illegal state transition"));
    }

    #[test]
    fn stale_from_state_is_flagged() {
        let mut dog = Watchdog::new();
        dog.on_event(&ev(
            0,
            1,
            ObsKind::StateTransition { from: ObsState::S, to: ObsState::X },
        ));
        assert_eq!(dog.violations().len(), 1);
        assert!(dog.violations()[0].message.contains("last observed in N"));
    }

    #[test]
    fn ack_overflow_is_flagged() {
        let mut dog = Watchdog::new();
        for o in 0..3 {
            dog.on_event(&ev(o, 0, ObsKind::ActionEnter));
        }
        // O0 broadcasts one exception (2 sends)...
        for to in 1..3 {
            dog.on_event(&ev(
                0,
                1,
                ObsKind::MessageSent { kind: "exception", to: NodeId::new(to) },
            ));
        }
        // ...so two ACKs are fine, a third is an overflow.
        for _ in 0..2 {
            dog.on_event(&ev(
                1,
                1,
                ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) },
            ));
        }
        assert!(dog.is_clean());
        dog.on_event(&ev(
            2,
            1,
            ObsKind::MessageSent { kind: "ack", to: NodeId::new(0) },
        ));
        assert_eq!(dog.violations().len(), 1);
        assert!(dog.violations()[0].message.contains("ACKs"));
    }

    #[test]
    fn commit_during_abortion_is_flagged() {
        let mut dog = Watchdog::new();
        dog.on_event(&ev(0, 1, ObsKind::AbortionStart { depth: 1 }));
        dog.on_event(&ev(
            0,
            1,
            ObsKind::HandlerStart { exception: ExceptionId::new(1) },
        ));
        assert_eq!(dog.violations().len(), 1);
        assert!(dog.violations()[0].message.contains("abortion"));
    }

    #[test]
    fn duplicate_commit_respects_expected_group() {
        let commit = ObsKind::ResolutionCommit {
            resolved: ExceptionId::new(1),
            raised: 1,
        };
        let mut dog = Watchdog::new();
        dog.on_event(&ev(0, 1, commit.clone()));
        dog.on_event(&ev(1, 1, commit.clone()));
        assert_eq!(dog.violations().len(), 1);

        let mut group = Watchdog::new().with_expected_commits(2);
        group.on_event(&ev(0, 1, commit.clone()));
        group.on_event(&ev(1, 1, commit));
        assert!(group.is_clean());
    }

    fn multicast(from: u32, kind: &'static str, to: u32) -> ObsEvent {
        ev(from, 1, ObsKind::MessageSent { kind, to: NodeId::new(to) })
    }

    /// A complete Example-1-shaped round over 3 objects: O0 raises,
    /// O1 aborts a nested action, O0 resolves. P=1, Q=1 → 4 multicasts.
    fn feed_clean_round(dog: &mut Watchdog, skip: Option<(&'static str, u32, u32)>) {
        for o in 0..3 {
            dog.on_event(&ev(o, 0, ObsKind::ActionEnter));
        }
        let bursts: [(&'static str, u32); 4] = [
            ("exception", 0),
            ("have_nested", 1),
            ("nested_completed", 1),
            ("commit", 0),
        ];
        for (kind, from) in bursts {
            for to in (0..3).filter(|&t| t != from) {
                if skip == Some((kind, from, to)) {
                    continue;
                }
                dog.on_event(&multicast(from, kind, to));
            }
        }
    }

    #[test]
    fn multicast_law_accepts_a_complete_round() {
        let mut dog = Watchdog::new().with_multicast_law();
        feed_clean_round(&mut dog, None);
        dog.on_run_end(SimTime::from_micros(99));
        assert!(dog.is_clean(), "{:?}", dog.violations());
    }

    #[test]
    fn multicast_law_flags_a_truncated_fanout() {
        let mut dog = Watchdog::new().with_multicast_law();
        feed_clean_round(&mut dog, Some(("commit", 0, 2)));
        dog.on_run_end(SimTime::from_micros(99));
        assert_eq!(dog.violations().len(), 1, "{:?}", dog.violations());
        assert!(dog.violations()[0]
            .message
            .contains("commit fan-out reached 1 of N\u{2212}1 = 2"));
    }

    #[test]
    fn multicast_law_flags_a_missing_nested_completed() {
        let mut dog = Watchdog::new().with_multicast_law();
        for o in 0..3 {
            dog.on_event(&ev(o, 0, ObsKind::ActionEnter));
        }
        // O1 announces HaveNested but never reports completion.
        for to in [1, 2] {
            dog.on_event(&multicast(0, "exception", to));
        }
        for to in [0, 2] {
            dog.on_event(&multicast(1, "have_nested", to));
        }
        for to in [1, 2] {
            dog.on_event(&multicast(0, "commit", to));
        }
        dog.on_run_end(SimTime::from_micros(99));
        let messages: Vec<&str> = dog.violations().iter().map(|v| v.message.as_str()).collect();
        assert!(
            messages.iter().any(|m| m.contains("NestedCompleted")),
            "{messages:?}"
        );
        assert!(
            messages.iter().any(|m| m.contains("\u{00a7}4.5 predicts")),
            "{messages:?}"
        );
    }

    #[test]
    fn multicast_law_flags_duplicate_destination() {
        let mut dog = Watchdog::new().with_multicast_law();
        for o in 0..2 {
            dog.on_event(&ev(o, 0, ObsKind::ActionEnter));
        }
        dog.on_event(&multicast(0, "exception", 1));
        dog.on_event(&multicast(0, "exception", 1));
        assert_eq!(dog.violations().len(), 1);
        assert!(dog.violations()[0].message.contains("twice"));
    }

    #[test]
    fn multicast_law_is_off_by_default() {
        let mut dog = Watchdog::new();
        // A blatantly truncated fan-out, but the law is not enabled.
        for o in 0..3 {
            dog.on_event(&ev(o, 0, ObsKind::ActionEnter));
        }
        dog.on_event(&multicast(0, "exception", 1));
        dog.on_run_end(SimTime::from_micros(99));
        assert!(dog.is_clean());
    }

    #[test]
    fn unbalanced_spans_are_flagged() {
        let mut dog = Watchdog::new();
        dog.on_event(&ev(0, 0, ObsKind::ActionLeave));
        dog.on_event(&ev(0, 0, ObsKind::AbortionEnd));
        dog.on_event(&ev(0, 0, ObsKind::HandlerEnd { signalled: false }));
        assert_eq!(dog.violations().len(), 3);
    }
}
