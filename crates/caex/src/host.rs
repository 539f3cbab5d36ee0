//! The one simulator host, for every machine that runs on `SimNet`.
//!
//! [`SimHost`] is the only place under `crates/caex/src` that pulls
//! deliveries off a `SimNet`. It is generic over the [`Machine`] its
//! nodes run and owns what every simulated run needs — the net, a dense
//! node-indexed table of machines, the machines' per-run
//! [`Machine::Shared`] state, the livelock guard — and one
//! [`SimHost::step`] that hands the next delivery to its node's machine.
//! Three machines run on it, each monomorphised:
//!
//! - the §4.2 [`Participant`], stepped through the [`ObsBridge`]; its
//!   shared state, [`Manager`], is the bridge, the effects buffer and the
//!   managed-leave coordinator with its optional exit-line acceptance
//!   tests. Two front-ends: [`crate::Scenario::run_observed`] (one script
//!   over the whole net, a [`crate::RunReport`] as the [`Sink`]) and
//!   [`crate::shard::FleetEngine`] (many scripts admitted into slots,
//!   per-instance outcomes as the sink);
//! - the fixed-coordinator baseline's node ([`crate::central`]);
//! - the Campbell–Randell baseline's node ([`crate::cr`]).
//!
//! The baselines stream each message's send and receipt through one
//! helper, [`Flat`]; the §4.2 machine's come from the bridge. The
//! port-driven hosts ([`crate::drive`]) are not behind the host: they
//! share script admission ([`Script::participant`]) and the observed
//! step, not the loop.

use crate::{Effect, Event, LeaveMode, Msg, Note, ObsBridge, Participant, Script};
use caex_action::ActionId;
use caex_net::{Delivery, DeliverySource, IdMap, Kinded, NetConfig, NodeId, SimNet, SimTime};
use caex_obs::{CorrelationId, ObsEvent, ObsKind, Observer};
use caex_tree::Exception;
use std::collections::BTreeSet;

/// An exit-line acceptance test: `None` accepts, `Some(exc)` rejects
/// with the exception to raise (Fig. 2b).
pub(crate) type AcceptanceTest = Box<dyn FnMut() -> Option<Exception>>;

/// Per-shard delivery cap of a fleet run (livelock guard).
pub(crate) const SHARD_DELIVERY_CAP: u64 = 50_000_000;

/// One node's state machine: a delivery in, sends and local events out
/// through the net.
pub(crate) trait Machine {
    /// What the net carries to a node, messages and local events, each
    /// with its kind label.
    type Event: Kinded + Clone;
    /// Per-run state every node's step may touch.
    type Shared;

    /// Handles `delivery`, addressed to this node.
    fn step<S: Sink>(
        &mut self,
        delivery: Delivery<Self::Event>,
        shared: &mut Self::Shared,
        net: &mut SimNet<Self::Event>,
        obs: &mut dyn Observer,
        sink: &mut S,
    );
}

/// What a §4.2 front-end learns from each [`SimHost::step`].
pub(crate) trait Sink {
    /// `event` is about to be handled by `to`.
    fn delivering(&mut self, _to: NodeId, _event: &Event) {}
    /// `msg` left for the network.
    fn sent(&mut self, _msg: &Msg) {}
    /// The step delivered at `at` produced `note`.
    fn note(&mut self, _at: SimTime, _note: Note) {}
}

/// The baselines' front-ends learn nothing from a step.
impl Sink for () {}

/// See the module documentation.
pub(crate) struct SimHost<M: Machine> {
    /// The simulated network; front-ends schedule their set-up on it and
    /// read its clock and statistics.
    pub(crate) net: SimNet<M::Event>,
    /// Dense: node ids are `< net.num_nodes()`.
    nodes: Vec<Option<M>>,
    /// What every node's step may touch; front-ends read results here.
    pub(crate) shared: M::Shared,
    max_deliveries: u64,
    /// `true` once the run was stopped by the delivery cap.
    pub(crate) hit_delivery_limit: bool,
}

impl<M: Machine> SimHost<M> {
    /// A net of `nodes.len()` nodes, `nodes[i]` running on node `i`.
    pub(crate) fn new(
        config: NetConfig,
        nodes: Vec<Option<M>>,
        shared: M::Shared,
        max_deliveries: u64,
    ) -> Self {
        SimHost {
            net: SimNet::new(config, nodes.len() as u32),
            nodes,
            shared,
            max_deliveries,
            hit_delivery_limit: false,
        }
    }

    /// The machine on `node`, if any.
    pub(crate) fn node(&self, node: NodeId) -> Option<&M> {
        self.nodes[node.index() as usize].as_ref()
    }

    /// Delivers the next event to its node's machine. Returns the
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
        let (at, to) = (delivery.at, delivery.to);
        self.nodes[to.index() as usize]
            .as_mut()
            .expect("delivery to unknown object")
            .step(delivery, &mut self.shared, &mut self.net, obs, sink);
        Some((at, to))
    }

    /// Steps until the net is quiescent or the delivery cap stops it.
    pub(crate) fn run<S: Sink>(&mut self, obs: &mut dyn Observer, sink: &mut S) {
        while self.step(obs, sink).is_some() {}
    }
}

impl SimHost<Participant> {
    /// A §4.2 host of `num_nodes` empty nodes; [`Self::admit`] fills them.
    pub(crate) fn bridged(
        config: NetConfig,
        num_nodes: u32,
        max_deliveries: u64,
        acceptance: Vec<(ActionId, AcceptanceTest)>,
    ) -> Self {
        let manager = Manager {
            bridge: ObsBridge::new(),
            effects: Vec::new(),
            leave_requests: IdMap::default(),
            acceptance: acceptance.into_iter().collect(),
        };
        Self::new(config, (0..num_nodes).map(|_| None).collect(), manager, max_deliveries)
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
            self.nodes[n.index() as usize] = Some(script.participant(n));
        }
        assert!(script.handlers.is_empty(), "handler for unknown object");
        for (offset, object, event) in std::mem::take(&mut script.steps) {
            self.net.schedule_local(start + offset, object, event);
        }
    }

    /// `true` unless `node` hosts a participant that is mid-resolution.
    pub(crate) fn is_normal(&self, node: NodeId) -> bool {
        self.node(node).is_none_or(Participant::is_normal)
    }

    /// Objects stuck mid-resolution, in ascending node order.
    pub(crate) fn deadlocked(&self) -> Vec<NodeId> {
        self.nodes
            .iter()
            .flatten()
            .filter(|p| !p.is_normal())
            .map(Participant::id)
            .collect()
    }
}

/// The §4.2 machine's per-run state: the bridge every step is observed
/// through, the effects buffer, and the centralized action manager's
/// synchronized exit.
pub(crate) struct Manager {
    bridge: ObsBridge,
    /// The effects of the step in progress; drained by every step, so
    /// its allocation is made once per run.
    effects: Vec<Effect>,
    /// Synchronized exit lines: action -> objects waiting to leave.
    leave_requests: IdMap<ActionId, BTreeSet<NodeId>>,
    acceptance: IdMap<ActionId, AcceptanceTest>,
}

/// The observed step: the event through the bridge, then the effects
/// dispatched, notes and sent messages handed to the front-end's sink.
impl Machine for Participant {
    type Event = Event;
    type Shared = Manager;

    fn step<S: Sink>(
        &mut self,
        delivery: Delivery<Self::Event>,
        manager: &mut Manager,
        net: &mut SimNet<Self::Event>,
        obs: &mut dyn Observer,
        sink: &mut S,
    ) {
        let (at, object) = (delivery.at, delivery.to);
        sink.delivering(object, &delivery.payload);
        let from = match delivery.source {
            DeliverySource::Remote(from) => Some(from),
            DeliverySource::Local => None,
        };
        let mut effects = std::mem::take(&mut manager.effects);
        manager
            .bridge
            .handle(self, delivery.payload, from, || (at, None), obs, &mut effects);
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    sink.sent(&msg);
                    net.send(object, to, Event::Msg(msg));
                }
                Effect::After { delay, event } => net.schedule_local_in(delay, object, event),
                Effect::Note(note) => {
                    if let Note::LeaveRequested { action, .. } = note {
                        manager.leave_requested(self, action, net);
                    }
                    sink.note(at, note);
                }
            }
        }
        manager.effects = effects;
    }
}

impl Manager {
    /// The synchronized exit ([`LeaveMode::Managed`]): grant the leave
    /// once every participant is at the line.
    fn leave_requested(
        &mut self,
        participant: &Participant,
        action: ActionId,
        net: &mut SimNet<Event>,
    ) {
        if participant.leave_mode() != LeaveMode::Managed {
            return;
        }
        let waiting = self.leave_requests.entry(action).or_default();
        waiting.insert(participant.id());
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
        let now = net.now();
        match self.acceptance.get_mut(&action).and_then(|test| test()) {
            Some(exc) => {
                waiting.clear();
                let tester = *everyone.last().expect("actions are non-empty");
                net.schedule_local(now, tester, Event::Raise(exc));
            }
            None => {
                for &member in everyone {
                    net.schedule_local(now, member, Event::LeaveGranted(action));
                }
            }
        }
    }
}

/// A baseline node's step: one flat resolution, every event reported in
/// span `A0#r1` (round 1 of action 0), each message's receipt and send
/// streamed where it happens.
pub(crate) struct Flat<'a, E> {
    pub(crate) net: &'a mut SimNet<E>,
    obs: &'a mut dyn Observer,
    /// The stepping node.
    pub(crate) me: NodeId,
}

impl<'a, E: Kinded + Clone> Flat<'a, E> {
    /// Opens the step of `delivery`; a message is streamed as received.
    pub(crate) fn new(
        delivery: &Delivery<E>,
        net: &'a mut SimNet<E>,
        obs: &'a mut dyn Observer,
    ) -> Self {
        let mut flat = Flat { net, obs, me: delivery.to };
        if let DeliverySource::Remote(from) = delivery.source {
            flat.emit(ObsKind::MessageReceived { kind: delivery.payload.kind(), from });
        }
        flat
    }

    /// Streams `kind` at this node, now.
    pub(crate) fn emit(&mut self, kind: ObsKind) {
        self.obs.on_event(&ObsEvent {
            at: self.net.now(),
            wall_micros: None,
            object: self.me,
            span: CorrelationId {
                action: ActionId::new(0),
                round: 1,
            },
            kind,
        });
    }

    /// Sends `msg` to `to`, streamed as sent.
    pub(crate) fn send(&mut self, to: NodeId, msg: E) {
        self.emit(ObsKind::MessageSent { kind: msg.kind(), to });
        self.net.send(self.me, to, msg);
    }

    /// Sends `msg` to every other node, in ascending order.
    pub(crate) fn broadcast(&mut self, msg: &E) {
        for peer in (0..self.net.num_nodes()).map(NodeId::new) {
            if peer != self.me {
                self.send(peer, msg.clone());
            }
        }
    }
}
