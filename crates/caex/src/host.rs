//! The run-time support layer under every §4.2 host, and the one
//! simulator host.
//!
//! A step sees its host only as an [`Outbox`]; [`route`] is the one
//! effect dispatch and [`ExitLines`] the one managed exit line, shared
//! by the simulator ([`SimHost`] over a `SimNet`), the port hosts
//! ([`crate::drive::PortHost`]) and `caex-lint`'s model checker.
//!
//! [`SimHost`] is the only place under `crates/caex/src` that pulls
//! deliveries off a `SimNet`: the net, a dense node-indexed table of
//! [`Machine`]s, their per-run [`Machine::Shared`] state, the livelock
//! guard, and one [`SimHost::step`]. Three machines run on it,
//! monomorphised: the §4.2 [`Participant`], observed through the
//! [`ObsBridge`] with [`Manager`] as its shared state (front-ends:
//! [`crate::Scenario::run_observed`] with a [`crate::RunReport`] as the
//! [`Sink`], [`crate::shard::FleetEngine`]), and the baselines' nodes
//! ([`crate::central`], [`crate::cr`]), streamed through [`Flat`].

use crate::{Effect, Event, Msg, Note, ObsBridge, Participant, Script};
use caex_action::{ActionId, ActionRegistry};
use caex_net::{Delivery, DeliverySource, IdMap, Kinded, NetConfig, NodeId, SimNet, SimTime};
use caex_obs::{CorrelationId, ObsEvent, ObsKind, Observer};
use caex_tree::Exception;
use std::collections::{BTreeMap, BTreeSet};

/// An exit-line acceptance test: `None` accepts, `Some(exc)` rejects
/// with the exception to raise (Fig. 2b).
pub(crate) type AcceptanceTest = Box<dyn FnMut() -> Option<Exception>>;

/// Per-shard delivery cap of a fleet run (livelock guard).
pub(crate) const SHARD_DELIVERY_CAP: u64 = 50_000_000;

/// Where a step's effects go: all a machine's step sees of its host.
/// The node is an argument, so [`SimNet`] implements it with its own
/// methods and an exit line can address another node. There is no
/// clock: a step happens at its delivery's time.
pub trait Outbox {
    /// What the transport carries and the timer queue holds.
    type Event;
    /// Sends `event` from `from` to `to`.
    fn send(&mut self, from: NodeId, to: NodeId, event: Self::Event);
    /// Delivers `event` at `node`, `delay` from now.
    fn after(&mut self, node: NodeId, delay: SimTime, event: Self::Event);
}

impl<E: Kinded + Clone> Outbox for SimNet<E> {
    type Event = E;
    fn send(&mut self, from: NodeId, to: NodeId, event: E) {
        SimNet::send(self, from, to, event);
    }
    fn after(&mut self, node: NodeId, delay: SimTime, event: E) {
        self.schedule_local_in(delay, node, event);
    }
}

/// The one effect dispatch of the §4.2 machine, for every host: the
/// `effects` of one step of `me`, in order — each `Send` through `out`
/// to its peer, each `After` onto `out`'s timer queue at `me`, each
/// `Note` to the `note` listener, which may add to `out`.
pub fn route<O: Outbox<Event = Event>>(
    me: NodeId,
    effects: impl IntoIterator<Item = Effect>,
    out: &mut O,
    note: &mut impl FnMut(&mut O, Note),
) {
    for effect in effects {
        match effect {
            Effect::Send { to, msg } => out.send(me, to, Event::Msg(msg)),
            Effect::After { delay, event } => out.after(me, delay, event),
            Effect::Note(n) => note(out, n),
        }
    }
}

/// The managed exit lines ([`crate::LeaveMode::Managed`]) of a run:
/// the one coordinator of the synchronized exit, for the simulator's
/// manager and `caex-lint`'s model checker. A line is full once
/// every participant of its action not reported as a deserter waits
/// at it.
#[derive(Debug, Default, Clone, Hash)]
pub struct ExitLines {
    /// Action -> the objects waiting at its line.
    waiting: BTreeMap<ActionId, BTreeSet<NodeId>>,
    granted: BTreeSet<ActionId>,
    deserted: BTreeSet<NodeId>,
}

impl ExitLines {
    /// Hears `note` about actions of `registry`: a `LeaveRequested`
    /// puts its object on its action's line, a `Deserted` takes the
    /// deserter off every line. A line then full is granted, as a
    /// `LeaveGranted` to `apply` for each live participant, unless
    /// `test(action)`, its Fig. 2b acceptance test, rejects it with an
    /// exception: `apply` gets it as a `Raise` at the highest-numbered.
    // Out of line: most runs never reach an exit line, and inlined the
    // coordinator grew `run_shard` by half.
    #[inline(never)]
    pub fn hear(
        &mut self,
        registry: &ActionRegistry,
        note: &Note,
        mut test: impl FnMut(ActionId) -> Option<Exception>,
        mut apply: impl FnMut(NodeId, Event),
    ) {
        let lines = match *note {
            Note::LeaveRequested { object, action } => {
                self.waiting.entry(action).or_default().insert(object);
                self.waiting.range_mut(action..=action)
            }
            Note::Deserted { peer, .. } => {
                if !self.deserted.insert(peer) {
                    return;
                }
                for waiting in self.waiting.values_mut() {
                    waiting.remove(&peer);
                }
                self.waiting.range_mut(..)
            }
            _ => return,
        };
        for (&action, waiting) in lines {
            // An action another registry declares is another instance's.
            let Ok(scope) = registry.scope(action) else { continue };
            let live = scope.participants().iter().filter(|p| !self.deserted.contains(p));
            let Some(&last) = live.clone().next_back() else { continue };
            if self.granted.contains(&action) || !live.clone().all(|p| waiting.contains(p)) {
                continue;
            }
            match test(action) {
                Some(exc) => {
                    waiting.clear();
                    apply(last, Event::Raise(exc));
                }
                None => {
                    self.granted.insert(action);
                    for &member in live {
                        apply(member, Event::LeaveGranted(action));
                    }
                }
            }
        }
    }
}

/// One node's state machine: a delivery in, sends and local events out
/// through the [`Outbox`].
pub(crate) trait Machine {
    /// What the net carries to a node, messages and local events, each
    /// with its kind label.
    type Event: Kinded + Clone;
    /// Per-run state every node's step may touch.
    type Shared;

    /// Handles `delivery`, addressed to this node.
    fn step<S: Sink, O: Outbox<Event = Self::Event>>(
        &mut self,
        delivery: Delivery<Self::Event>,
        shared: &mut Self::Shared,
        out: &mut O,
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
            lines: ExitLines::default(),
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
    lines: ExitLines,
    acceptance: IdMap<ActionId, AcceptanceTest>,
}

/// The observed step: the event through the bridge, then the effects
/// routed, sent messages and notes reported to the sink.
impl Machine for Participant {
    type Event = Event;
    type Shared = Manager;

    fn step<S: Sink, O: Outbox<Event = Event>>(
        &mut self,
        delivery: Delivery<Self::Event>,
        manager: &mut Manager,
        out: &mut O,
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
        for effect in &effects {
            if let Effect::Send { msg, .. } = effect {
                sink.sent(msg);
            }
        }
        // Under the managed exit, the notes the exit lines hear go to
        // them, and their decisions are scheduled as local events.
        let (lines, acceptance) = (&mut manager.lines, &mut manager.acceptance);
        route(object, effects.drain(..), out, &mut |out: &mut O, note| {
            let heard = matches!(note, Note::LeaveRequested { .. } | Note::Deserted { .. });
            if let Some(registry) = self.managed_exit().filter(|_| heard) {
                let test = |action| acceptance.get_mut(&action).and_then(|test| test());
                lines.hear(registry, &note, test, |node, ev| out.after(node, SimTime::ZERO, ev));
            }
            sink.note(at, note);
        });
        manager.effects = effects;
    }
}

/// A baseline node's step: one flat resolution, every event reported in
/// span `A0#r1` (round 1 of action 0), each message's receipt and send
/// streamed where it happens.
pub(crate) struct Flat<'a, E> {
    pub(crate) out: &'a mut dyn Outbox<Event = E>,
    obs: &'a mut dyn Observer,
    /// The stepping node.
    pub(crate) me: NodeId,
    /// The run's node count; a broadcast reaches every other node.
    nodes: u32,
    /// When the step happens.
    at: SimTime,
}

impl<'a, E: Kinded + Clone> Flat<'a, E> {
    /// Opens the step of `delivery` in a run of `nodes` nodes; a
    /// message is streamed as received.
    pub(crate) fn new(
        delivery: &Delivery<E>,
        nodes: u32,
        out: &'a mut dyn Outbox<Event = E>,
        obs: &'a mut dyn Observer,
    ) -> Self {
        let mut flat = Flat { out, obs, me: delivery.to, nodes, at: delivery.at };
        if let DeliverySource::Remote(from) = delivery.source {
            flat.emit(ObsKind::MessageReceived { kind: delivery.payload.kind(), from });
        }
        flat
    }

    /// Streams `kind` at this node, now.
    pub(crate) fn emit(&mut self, kind: ObsKind) {
        self.obs.on_event(&ObsEvent {
            at: self.at,
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
        self.out.send(self.me, to, msg);
    }

    /// Sends `msg` to every other node, in ascending order.
    pub(crate) fn broadcast(&mut self, msg: &E) {
        for peer in (0..self.nodes).map(NodeId::new) {
            if peer != self.me {
                self.send(peer, msg.clone());
            }
        }
    }
}
