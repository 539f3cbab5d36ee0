//! The one simulator host of the §4.2 machine.
//!
//! [`SimHost`] is the only place under `crates/caex/src` that pulls
//! deliveries off a `SimNet<Event>`. It owns what every simulated run
//! needs — the net, a dense node-indexed [`Participant`] table, the
//! [`ObsBridge`], the managed-leave coordinator with its optional
//! exit-line acceptance tests, the livelock guard — and one
//! [`SimHost::step`] that delivers the next event through the bridge's
//! observed step, dispatches the effects and hands every note and
//! every sent message to the front-end's [`Sink`].
//!
//! Two front-ends sit on it: [`crate::Scenario::run_observed`] (one
//! script over the whole net, a [`crate::RunReport`] as the sink) and
//! [`crate::shard::FleetEngine`] (many scripts admitted into slots,
//! per-instance outcomes as the sink). The port-driven hosts
//! ([`crate::drive`]) are not behind it: they share script admission
//! ([`Script::participant`]) and the observed step, not the loop.

use crate::{Effect, Event, LeaveMode, Msg, Note, ObsBridge, Participant, Script};
use caex_action::ActionId;
use caex_net::{DeliverySource, IdMap, NetConfig, NodeId, SimNet, SimTime};
use caex_obs::Observer;
use caex_tree::Exception;
use std::collections::BTreeSet;

/// An exit-line acceptance test: `None` accepts, `Some(exc)` rejects
/// with the exception to raise (Fig. 2b).
pub(crate) type AcceptanceTest = Box<dyn FnMut() -> Option<Exception>>;

/// Per-shard delivery cap of a fleet run (livelock guard).
pub(crate) const SHARD_DELIVERY_CAP: u64 = 50_000_000;

/// What a front-end learns from each [`SimHost::step`].
pub(crate) trait Sink {
    /// `event` is about to be handled by `to`.
    fn delivering(&mut self, _to: NodeId, _event: &Event) {}
    /// `msg` left for the network.
    fn sent(&mut self, _msg: &Msg) {}
    /// The step delivered at `at` produced `note`.
    fn note(&mut self, at: SimTime, note: Note);
}

/// See the module documentation.
pub(crate) struct SimHost {
    /// The simulated network; front-ends schedule their script set-up
    /// on it and read its clock and statistics.
    pub(crate) net: SimNet<Event>,
    /// Dense: node ids are `< net.num_nodes()`.
    participants: Vec<Option<Participant>>,
    bridge: ObsBridge,
    /// The effects of the step in progress; drained by every
    /// [`Self::step`], so its allocation is made once per run.
    effects: Vec<Effect>,
    /// Synchronized exit lines: action -> objects waiting to leave.
    leave_requests: IdMap<ActionId, BTreeSet<NodeId>>,
    acceptance: IdMap<ActionId, AcceptanceTest>,
    max_deliveries: u64,
    /// `true` once the run was stopped by the delivery cap.
    pub(crate) hit_delivery_limit: bool,
}

impl SimHost {
    pub(crate) fn new(
        config: NetConfig,
        num_nodes: u32,
        max_deliveries: u64,
        acceptance: Vec<(ActionId, AcceptanceTest)>,
    ) -> Self {
        SimHost {
            net: SimNet::new(config, num_nodes),
            participants: (0..num_nodes).map(|_| None).collect(),
            bridge: ObsBridge::new(),
            effects: Vec::new(),
            leave_requests: IdMap::default(),
            acceptance: acceptance.into_iter().collect(),
            max_deliveries,
            hit_delivery_limit: false,
        }
    }

    /// Brings `script` to life at `start`: the script's participant
    /// ([`Script::participant`]) on each of `nodes`, the steps
    /// scheduled as offsets from `start`.
    pub(crate) fn admit(
        &mut self,
        script: &mut Script,
        nodes: impl IntoIterator<Item = NodeId>,
        start: SimTime,
    ) {
        for n in nodes {
            self.participants[n.index() as usize] = Some(script.participant(n));
        }
        assert!(script.handlers.is_empty(), "handler for unknown object");
        for (offset, object, event) in std::mem::take(&mut script.steps) {
            self.net.schedule_local(start + offset, object, event);
        }
    }

    /// `true` unless `node` hosts a participant that is mid-resolution.
    pub(crate) fn is_normal(&self, node: NodeId) -> bool {
        self.participants[node.index() as usize]
            .as_ref()
            .is_none_or(Participant::is_normal)
    }

    /// Objects stuck mid-resolution, in ascending node order.
    pub(crate) fn deadlocked(&self) -> Vec<NodeId> {
        self.participants
            .iter()
            .flatten()
            .filter(|p| !p.is_normal())
            .map(Participant::id)
            .collect()
    }

    /// Delivers the next event and dispatches its effects. Returns the
    /// delivery's time and receiver, or `None` when the net is
    /// quiescent or the delivery cap stopped the run.
    pub(crate) fn step<S: Sink>(
        &mut self,
        obs: &mut dyn Observer,
        sink: &mut S,
    ) -> Option<(SimTime, NodeId)> {
        let delivery = self.net.next_delivery()?;
        if self.net.delivered_count() > self.max_deliveries {
            self.hit_delivery_limit = true;
            return None;
        }
        let (at, object) = (delivery.at, delivery.to);
        sink.delivering(object, &delivery.payload);
        let from = match delivery.source {
            DeliverySource::Remote(from) => Some(from),
            DeliverySource::Local => None,
        };
        let participant = self.participants[object.index() as usize]
            .as_mut()
            .expect("delivery to unknown object");
        let mut effects = std::mem::take(&mut self.effects);
        self.bridge
            .handle(participant, delivery.payload, from, || (at, None), obs, &mut effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    sink.sent(&msg);
                    self.net.send(object, to, Event::Msg(msg));
                }
                Effect::After { delay, event } => self.net.schedule_local_in(delay, object, event),
                Effect::Note(note) => {
                    if let Note::LeaveRequested { object, action } = note {
                        self.leave_requested(object, action);
                    }
                    sink.note(at, note);
                }
            }
        }
        self.effects = effects;
        Some((at, object))
    }

    /// The centralized action manager's synchronized exit
    /// ([`LeaveMode::Managed`]): grant the leave once every participant
    /// is at the line.
    fn leave_requested(&mut self, object: NodeId, action: ActionId) {
        let participant = self.participants[object.index() as usize]
            .as_ref()
            .expect("leave from a hosted object");
        if participant.leave_mode() != LeaveMode::Managed {
            return;
        }
        let waiting = self.leave_requests.entry(action).or_default();
        waiting.insert(object);
        let everyone = participant
            .registry()
            .scope(action)
            .expect("declared action")
            .participants();
        if waiting.len() != everyone.len() {
            return;
        }
        // Fig. 2b: the acceptance test runs at the exit line. Rejection
        // turns into a raised exception at the highest-numbered
        // participant; an exhausted (or absent) test accepts.
        let now = self.net.now();
        match self.acceptance.get_mut(&action).and_then(|test| test()) {
            Some(exc) => {
                waiting.clear();
                let tester = *everyone.last().expect("actions are non-empty");
                self.net.schedule_local(now, tester, Event::Raise(exc));
            }
            None => {
                for &member in everyone {
                    self.net.schedule_local(now, member, Event::LeaveGranted(action));
                }
            }
        }
    }
}
