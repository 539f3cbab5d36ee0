//! The bridge between the engines' [`Note`]/[`Effect`] stream and the
//! typed [`caex_obs`] event stream.
//!
//! [`ObsBridge::handle`] *is* the observed step of every host (the
//! simulator host behind `Scenario` and `FleetEngine`, the thread
//! engine, `caex-wire`'s per-process harness): it emits the receive
//! event of a transport delivery, snapshots the participant's
//! observable state, applies the event through
//! `Participant::handle_into`, compares the state afterwards and
//! translates the emitted effects into [`ObsEvent`]s — opening and
//! closing `(action, round)` correlation spans along the way. That
//! includes a port host's failure-detector reports, which
//! [`crate::drive`] applies as the local events
//! `PeerSuspected`/`PeerRejoined`/`DeserterSuspected`: nothing reaches
//! a participant past the bridge. One bridge instance serves a whole
//! run: the per-action round counters are global, which is what makes
//! the correlation ids line up across participants. An observer that
//! does not observe ([`Observer::observes`], e.g. the `()` of an
//! un-instrumented run) gets none of this: the step is `handle_into`
//! alone, and the bridge keeps no round state.
//!
//! Two translations are synthesized rather than copied from notes:
//!
//! - **Abortion end** — `on_abortion_done` has no dedicated note; the
//!   bridge derives [`ObsKind::AbortionEnd`] from the `aborting` flag
//!   dropping across the handle (stale `AbortionDone` continuations,
//!   whose epoch mismatches, correctly emit nothing).
//! - **Signal raises** — an abortion handler's signalled exception is
//!   pushed straight into `LE` without a `Raised` note; the bridge
//!   emits the [`ObsKind::Raise`] so metrics still count the paper's
//!   `P` correctly (Example 2's `E3`).

use crate::{Effect, Event, Note, PState, Participant};
use caex_action::ActionId;
use caex_net::{IdMap, Kinded, NodeId, SimTime};
use caex_obs::{CorrelationId, ObsEvent, ObsKind, ObsState, Observer};
use caex_tree::Exception;
use std::time::Instant;

/// The stamp a wall-clock host's clock hands to [`ObsBridge::handle`]:
/// microseconds since `start`, as the event's time and its
/// `wall_micros`.
#[must_use]
pub fn wall_stamp(start: Instant) -> (SimTime, Option<u64>) {
    let wall = u64::try_from(start.elapsed().as_micros()).unwrap_or(u64::MAX);
    (SimTime::from_micros(wall), Some(wall))
}

/// Maps the participant's optional [`PState`] onto the observable
/// four-state alphabet (`None` is the paper's `N`).
#[must_use]
pub(crate) fn obs_state(state: Option<PState>) -> ObsState {
    match state {
        None => ObsState::N,
        Some(PState::Exceptional) => ObsState::X,
        Some(PState::Suspended) => ObsState::S,
        Some(PState::Ready) => ObsState::R,
    }
}

/// The distinct exception classes in a committed raised set — the
/// paper's `P` — each counted at its first occurrence (the set holds a
/// handful of entries).
pub(crate) fn distinct_classes(raised: &[(NodeId, Exception)]) -> usize {
    raised
        .iter()
        .enumerate()
        .filter(|(i, (_, e))| raised[..*i].iter().all(|(_, seen)| seen.id() != e.id()))
        .count()
}

/// Pre-`handle` snapshot of everything `post` needs to diff.
struct PreSnapshot {
    object: NodeId,
    state: Option<PState>,
    aborting: bool,
    res_action: Option<ActionId>,
    active_action: Option<ActionId>,
    handler_done: Option<(ActionId, bool)>,
    abortion_done: Option<(ActionId, Option<Exception>)>,
}

#[derive(Debug, Default)]
struct RoundState {
    number: u32,
    open: bool,
    /// `true` when the round was opened by incoming traffic rather
    /// than a local `Raised` note — the per-process (`caex-wire`)
    /// case, where the bridge of a non-raiser first learns of a
    /// remote round from the wire itself.
    silent: bool,
}

/// Translates `Participant::handle` calls into [`ObsEvent`]s.
#[derive(Debug, Default)]
pub struct ObsBridge {
    rounds: IdMap<ActionId, RoundState>,
    open_handlers: IdMap<NodeId, ActionId>,
}

impl ObsBridge {
    /// Creates a bridge with no open rounds.
    #[must_use]
    pub fn new() -> Self {
        Self::default()
    }

    /// The current round number of `action` (0 before the first raise).
    #[must_use]
    pub(crate) fn round_of(&self, action: ActionId) -> u32 {
        self.rounds.get(&action).map_or(0, |r| r.number)
    }

    fn open_round(&mut self, action: ActionId) -> (u32, bool) {
        let round = self.rounds.entry(action).or_default();
        if round.open {
            (round.number, false)
        } else {
            round.number += 1;
            round.open = true;
            round.silent = false;
            (round.number, true)
        }
    }

    fn close_round(&mut self, action: ActionId) {
        if let Some(round) = self.rounds.get_mut(&action) {
            round.open = false;
        }
    }

    /// The observed step: applies `event` to `participant`, appends
    /// the effects to `fx` (the host's buffer, so a host that drains it
    /// every step allocates it once) and streams what happened to
    /// `obs`. `from` names the sender of a transport delivery (`None`
    /// for a local event). `clock` is read once for the receive event
    /// of a transport delivery and once after the handle for
    /// everything else; it yields the event time and, on hosts with a
    /// wall clock, the real elapsed microseconds ([`wall_stamp`]). A
    /// simulator returns its delivery time twice. When `obs` does not
    /// observe, the step applies `event` and nothing else: no clock
    /// read, no snapshot, no event, no round.
    pub fn handle(
        &mut self,
        participant: &mut Participant,
        event: Event,
        from: Option<NodeId>,
        mut clock: impl FnMut() -> (SimTime, Option<u64>),
        obs: &mut dyn Observer,
        fx: &mut Vec<Effect>,
    ) {
        if !obs.observes() {
            participant.handle_into(event, fx);
            return;
        }
        if let Some(from) = from {
            let (at, wall) = clock();
            self.on_receive(participant.id(), &event, from, at, wall, obs);
        }
        let pre = Self::pre(participant, &event);
        let first = fx.len();
        participant.handle_into(event, fx);
        let (at, wall) = clock();
        self.post(&pre, participant, &fx[first..], at, wall, obs);
    }

    /// Emits the [`ObsKind::MessageReceived`] event for a protocol
    /// message delivered to `object` from `from`, just before the
    /// participant handles it. Local (non-message) events emit
    /// nothing.
    ///
    /// Round synchronization: a globally bridged engine (simulator,
    /// threads) has already opened the round at the raiser's `Raised`
    /// note, so the receive simply joins it. A per-process bridge
    /// (`caex-wire`) whose object never raised first learns of the
    /// remote round from the incoming `Exception`/`HaveNested`/
    /// `NestedCompleted` itself — the round is then opened *silently*
    /// (no [`ObsKind::ResolutionStart`]; that event stays with the
    /// raiser) so correlation ids line up across processes, and a
    /// received `commit` closes a silently opened round again.
    fn on_receive(
        &mut self,
        object: NodeId,
        event: &Event,
        from: NodeId,
        at: SimTime,
        wall: Option<u64>,
        obs: &mut dyn Observer,
    ) {
        let Event::Msg(msg) = event else { return };
        let action = msg.action();
        let kind = msg.kind();
        let round = {
            let r = self.rounds.entry(action).or_default();
            if !r.open
                && r.number == 0
                && matches!(kind, "exception" | "have_nested" | "nested_completed")
            {
                r.number = 1;
                r.open = true;
                r.silent = true;
            }
            r.number
        };
        obs.on_event(&ObsEvent {
            at,
            wall_micros: wall,
            object,
            span: CorrelationId { action, round },
            kind: ObsKind::MessageReceived { kind, from },
        });
        if kind == "commit" {
            if let Some(r) = self.rounds.get_mut(&action) {
                if r.open && r.silent {
                    r.open = false;
                }
            }
        }
    }

    /// Snapshots `participant` before it handles `event`.
    fn pre(participant: &Participant, event: &Event) -> PreSnapshot {
        PreSnapshot {
            object: participant.id(),
            state: participant.state(),
            aborting: participant.is_aborting(),
            res_action: participant.resolution_action(),
            active_action: participant.active_action(),
            handler_done: match event {
                Event::HandlerDone { action, signal } => Some((*action, signal.is_some())),
                _ => None,
            },
            abortion_done: match event {
                Event::AbortionDone { action, signal, .. } => {
                    Some((*action, signal.clone()))
                }
                _ => None,
            },
        }
    }

    /// Diffs the snapshot against the post-`handle` participant and
    /// streams the resulting events to `obs`. `wall` carries real
    /// elapsed microseconds on engines with a wall clock.
    #[allow(clippy::too_many_lines)]
    fn post(
        &mut self,
        snap: &PreSnapshot,
        participant: &Participant,
        fx: &[Effect],
        at: SimTime,
        wall: Option<u64>,
        obs: &mut dyn Observer,
    ) {
        let object = snap.object;
        let mk = |action: ActionId, round: u32, kind: ObsKind| ObsEvent {
            at,
            wall_micros: wall,
            object,
            span: CorrelationId { action, round },
            kind,
        };

        // Abortion completion: the `aborting` flag dropped across this
        // handle. Chronologically first — the NestedCompleted fan-out
        // and any immediate commit in `fx` happen after the abortion
        // has finished.
        if let Some((action, signal)) = &snap.abortion_done {
            if snap.aborting && !participant.is_aborting() {
                let round = self.round_of(*action);
                obs.on_event(&mk(*action, round, ObsKind::AbortionEnd));
                if let Some(exc) = signal {
                    // The signalled exception enters LE without a
                    // `Raised` note; synthesize its raise.
                    obs.on_event(&mk(
                        *action,
                        round,
                        ObsKind::Raise { exception: exc.id() },
                    ));
                }
            }
        }

        // Handler completion (the continuation may be void if an outer
        // abortion already tore the handler down — then the span was
        // closed by the abortion translation below).
        if let Some((action, signalled)) = snap.handler_done {
            if self.open_handlers.get(&object) == Some(&action) {
                self.open_handlers.remove(&object);
                obs.on_event(&mk(
                    action,
                    self.round_of(action),
                    ObsKind::HandlerEnd { signalled },
                ));
            }
        }

        for effect in fx {
            match effect {
                Effect::Send { to, msg } => {
                    let action = msg.action();
                    obs.on_event(&mk(
                        action,
                        self.round_of(action),
                        ObsKind::MessageSent { kind: msg.kind(), to: *to },
                    ));
                }
                Effect::After { .. } => {}
                Effect::Note(note) => {
                    self.translate_note(note, &mk, obs);
                }
            }
        }

        // The net state transition across the handle. Intra-handle
        // compound moves (N→X→N for a sole-raiser instant commit)
        // cancel out by design: dwell time in a zero-length state is
        // zero and the commit events above already tell the story.
        let from = obs_state(snap.state);
        let to = obs_state(participant.state());
        if from != to {
            let action = participant
                .resolution_action()
                .or(snap.res_action)
                .or(snap.active_action)
                .unwrap_or_else(|| ActionId::new(0));
            obs.on_event(&mk(
                action,
                self.round_of(action),
                ObsKind::StateTransition { from, to },
            ));
        }
    }

    fn translate_note(
        &mut self,
        note: &Note,
        mk: &dyn Fn(ActionId, u32, ObsKind) -> ObsEvent,
        obs: &mut dyn Observer,
    ) {
        match note {
            Note::Entered { action, .. } => {
                obs.on_event(&mk(*action, self.round_of(*action), ObsKind::ActionEnter));
            }
            Note::Completed { action, .. } | Note::SignalledFailure { action, .. } => {
                obs.on_event(&mk(*action, self.round_of(*action), ObsKind::ActionLeave));
            }
            Note::Raised { action, exc, .. } => {
                let (round, fresh) = self.open_round(*action);
                if fresh {
                    obs.on_event(&mk(*action, round, ObsKind::ResolutionStart));
                }
                obs.on_event(&mk(*action, round, ObsKind::Raise { exception: exc.id() }));
            }
            Note::AbortedNested { object, outer, chain }
            | Note::WaitingForNested { object, outer, chain, .. } => {
                // A handler still running for a chain action dies with
                // it; close its span before the action spans.
                if let Some(h) = self.open_handlers.get(object).copied() {
                    if chain.contains(&h) {
                        self.open_handlers.remove(object);
                        obs.on_event(&mk(
                            h,
                            self.round_of(h),
                            ObsKind::HandlerEnd { signalled: false },
                        ));
                    }
                }
                // The chain unwinds innermost-first, keeping each
                // track's span stack LIFO.
                for nested in chain {
                    obs.on_event(&mk(
                        *nested,
                        self.round_of(*nested),
                        ObsKind::ActionLeave,
                    ));
                }
                obs.on_event(&mk(
                    *outer,
                    self.round_of(*outer),
                    ObsKind::AbortionStart { depth: chain.len() as u32 },
                ));
            }
            Note::ResolutionCommitted { action, resolver, resolved, raised } => {
                let round = self.round_of(*action);
                obs.on_event(&mk(
                    *action,
                    round,
                    ObsKind::ResolverElected { resolver: *resolver },
                ));
                obs.on_event(&mk(
                    *action,
                    round,
                    ObsKind::ResolutionCommit {
                        resolved: resolved.id(),
                        raised: distinct_classes(raised) as u32,
                    },
                ));
                self.close_round(*action);
            }
            Note::HandlerStarted { object, action, exc, .. } => {
                self.open_handlers.insert(*object, *action);
                obs.on_event(&mk(
                    *action,
                    self.round_of(*action),
                    ObsKind::HandlerStart { exception: exc.id() },
                ));
            }
            Note::ActionFailed { action, exc, .. } => {
                obs.on_event(&mk(
                    *action,
                    self.round_of(*action),
                    ObsKind::ActionFailed { exception: exc.id() },
                ));
            }
            Note::ResolverSuspected { action, peer, .. } => {
                obs.on_event(&mk(
                    *action,
                    self.round_of(*action),
                    ObsKind::ResolverSuspected { resolver: *peer },
                ));
            }
            // Suspicion is a node-level observation with no action
            // span of its own; the zero action is the span-less
            // convention (round 0 keeps it out of the law checks). The
            // participant's own `suspects` set makes each transition
            // emit exactly one note, whichever path noticed it (the
            // detector's report or proof of life inside a message).
            Note::PeerSuspected { peer, .. } => {
                obs.on_event(&mk(
                    ActionId::new(0),
                    0,
                    ObsKind::PeerSuspected { peer: *peer },
                ));
            }
            Note::PeerRejoined { peer, .. } => {
                obs.on_event(&mk(
                    ActionId::new(0),
                    0,
                    ObsKind::PeerRejoined { peer: *peer },
                ));
            }
            Note::ResolverReelected { action, resolver, replaced } => {
                obs.on_event(&mk(
                    *action,
                    self.round_of(*action),
                    ObsKind::ResolverReelected {
                        resolver: *resolver,
                        replaced: *replaced,
                    },
                ));
            }
            // Book-keeping notes with no span semantics: skipped
            // entries, suppressed raises, stale messages, multicast
            // tallies, leave coordination.
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn rounds_open_once_and_reopen_after_close() {
        let mut bridge = ObsBridge::new();
        let a = ActionId::new(3);
        assert_eq!(bridge.round_of(a), 0);
        assert_eq!(bridge.open_round(a), (1, true));
        assert_eq!(bridge.open_round(a), (1, false));
        bridge.close_round(a);
        assert_eq!(bridge.round_of(a), 1);
        assert_eq!(bridge.open_round(a), (2, true));
    }

    /// Drives Example-style traffic — both objects enter, object 1
    /// raises, object 0 receives the exception — through one bridge,
    /// and returns the bridge.
    fn drive(obs: &mut dyn Observer) -> ObsBridge {
        use caex_action::{ActionRegistry, ActionScope};
        use std::sync::Arc;
        let mut registry = ActionRegistry::new();
        let a = registry
            .declare(ActionScope::top_level(
                "a",
                [NodeId::new(0), NodeId::new(1)],
                Arc::new(caex_tree::chain_tree(2)),
            ))
            .unwrap();
        let registry = Arc::new(registry);
        let mut ps: Vec<Participant> = (0..2)
            .map(|i| Participant::new(NodeId::new(i), Arc::clone(&registry), Default::default()))
            .collect();
        let mut bridge = ObsBridge::new();
        let mut fx = Vec::new();
        let clock = || (SimTime::ZERO, None);
        for p in &mut ps {
            bridge.handle(p, Event::Enter(a), None, clock, obs, &mut fx);
        }
        let exc = Exception::new(caex_tree::ExceptionId::new(1));
        bridge.handle(&mut ps[1], Event::Raise(exc), None, clock, obs, &mut fx);
        let sent = fx.iter().find_map(|e| match e {
            Effect::Send { to, msg } if *to == NodeId::new(0) => Some(msg.clone()),
            _ => None,
        });
        let msg = sent.expect("the raiser multicasts its exception");
        bridge.handle(&mut ps[0], Event::Msg(msg), Some(NodeId::new(1)), clock, obs, &mut fx);
        bridge
    }

    #[test]
    fn an_unobserved_bridge_keeps_no_round_state() {
        let quiet = drive(&mut ());
        assert!(quiet.rounds.is_empty() && quiet.open_handlers.is_empty());
        let mut recorder = caex_obs::Recorder::new();
        let watched = drive(&mut recorder);
        assert_eq!(watched.round_of(ActionId::new(0)), 1);
        assert!(recorder.events.iter().any(|e| e.kind.label() == "message_received"));
    }

    #[test]
    fn obs_state_maps_the_paper_alphabet() {
        assert_eq!(obs_state(None), ObsState::N);
        assert_eq!(obs_state(Some(PState::Exceptional)), ObsState::X);
        assert_eq!(obs_state(Some(PState::Suspended)), ObsState::S);
        assert_eq!(obs_state(Some(PState::Ready)), ObsState::R);
    }
}
