//! The run-time support layer under every §4.2 host, and the one
//! simulator host.
//!
//! A step sees its host only as an [`Outbox`]; [`route`] is the one
//! effect dispatch and [`ExitLines`] the one managed exit line, shared
//! by the simulator ([`SimHost`] over a `SimNet`), the port hosts
//! ([`crate::drive::PortHost`]) and `caex-lint`'s model checker.
//!
//! [`SimHost`] is the only place under `crates/caex/src` that pulls
//! deliveries off a `SimNet`: the net, its [`Machine`]s in a slab
//! addressed through a dense node-to-slot table, their per-run
//! [`Machine::Shared`] state, the livelock guard, and one
//! [`SimHost::step`]. A front-end may [`SimHost::retire`] the machines
//! of a node range nothing is queued for any more, and their slots are
//! reused, so a fleet shard holds only what it is running. Three
//! machines run on it,
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

/// `SimHost::slot_of` for a node without a machine.
const NO_SLOT: u32 = u32::MAX;

/// See the module documentation.
pub(crate) struct SimHost<M: Machine> {
    /// The simulated network; front-ends schedule their set-up on it and
    /// read its clock and statistics.
    pub(crate) net: SimNet<M::Event>,
    /// Node -> its machine's slot in `machines`, or [`NO_SLOT`]. Dense:
    /// node ids are `< net.num_nodes()`.
    slot_of: Vec<u32>,
    /// The machines; a retired slot is `None` and waits on `free`, so
    /// the slab never grows past the most machines live at once.
    machines: Vec<Option<M>>,
    free: Vec<u32>,
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
        let mut host = Self::empty(config, nodes.len() as u32, shared, max_deliveries);
        for (n, machine) in (0..).zip(nodes) {
            if let Some(machine) = machine {
                host.place(NodeId::new(n), machine);
            }
        }
        host
    }

    /// A net of `num_nodes` nodes without a machine.
    fn empty(config: NetConfig, num_nodes: u32, shared: M::Shared, max_deliveries: u64) -> Self {
        SimHost {
            net: SimNet::new(config, num_nodes),
            slot_of: vec![NO_SLOT; num_nodes as usize],
            machines: Vec::new(),
            free: Vec::new(),
            shared,
            max_deliveries,
            hit_delivery_limit: false,
        }
    }

    /// The machine on `node`, if any.
    pub(crate) fn node(&self, node: NodeId) -> Option<&M> {
        let slot = self.slot_of[node.index() as usize];
        self.machines.get(slot as usize)?.as_ref()
    }

    /// Runs `machine` on `node`, in place of the machine there, if any.
    fn place(&mut self, node: NodeId, machine: M) {
        let slot = &mut self.slot_of[node.index() as usize];
        if *slot == NO_SLOT {
            *slot = self.free.pop().unwrap_or_else(|| {
                self.machines.push(None);
                (self.machines.len() - 1) as u32
            });
        }
        self.machines[*slot as usize] = Some(machine);
    }

    /// Drops the machines of `nodes` and frees their slots, unless the
    /// net still holds an event for one of the nodes: then it keeps
    /// them all and returns `false`. A later delivery to a retired node
    /// panics, so retire only nodes nothing else will address.
    pub(crate) fn retire(&mut self, nodes: &[NodeId]) -> bool {
        if nodes.iter().any(|&n| self.net.in_flight_to(n) > 0) {
            return false;
        }
        for &n in nodes {
            let slot = std::mem::replace(&mut self.slot_of[n.index() as usize], NO_SLOT);
            if slot != NO_SLOT {
                self.machines[slot as usize] = None;
                self.free.push(slot);
            }
        }
        true
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
        let slot = self.slot_of[to.index() as usize] as usize;
        self.machines
            .get_mut(slot)
            .and_then(Option::as_mut)
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
        Self::empty(config, num_nodes, manager, max_deliveries)
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
            self.place(n, script.participant(n));
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
        self.net.nodes().filter(|&n| !self.is_normal(n)).collect()
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads;

    const N: u32 = 4;

    /// `general_at(4, 2, 1)` instance `i`'s script and nodes.
    fn instance(i: u32) -> (Script, Vec<NodeId>) {
        let w = workloads::general_at(N, 2, 1, i * N, i * 2, NetConfig::default());
        let nodes = (i * N..(i + 1) * N).map(NodeId::new).collect();
        (w.scenario.script_for("a host test"), nodes)
    }

    /// Two at a time through one host, each retired once it is back to
    /// normal and nothing is queued for it: the slab holds the live
    /// instances' participants and no more.
    #[test]
    fn a_fleet_of_200_at_capacity_2_never_holds_more_than_2n_participants() {
        const K: u32 = 200;
        let mut host = SimHost::bridged(NetConfig::default(), K * N, u64::MAX, Vec::new());
        let (mut next, mut live, mut retired, mut peak) = (0, Vec::new(), 0, 0);
        let mut admit = |host: &mut SimHost<Participant>, live: &mut Vec<(u32, Vec<NodeId>)>| {
            while live.len() < 2 && next < K {
                let (mut script, nodes) = instance(next);
                host.admit(&mut script, nodes.iter().copied(), host.net.now());
                live.push((next, nodes));
                next += 1;
            }
        };
        admit(&mut host, &mut live);
        while let Some((_, object)) = host.step(&mut (), &mut ()) {
            peak = peak.max(host.machines.len());
            let i = object.index() / N;
            let Some(at) = live.iter().position(|(l, _)| *l == i) else { continue };
            let nodes = &live[at].1;
            if nodes.iter().all(|&n| host.is_normal(n)) && host.retire(nodes) {
                live.remove(at);
                retired += 1;
                admit(&mut host, &mut live);
            }
        }
        assert_eq!(retired, K);
        assert_eq!(host.net.stats().sent_total(), u64::from(K) * 24);
        assert_eq!(peak, 2 * N as usize);
        assert_eq!(host.free.len(), peak, "every slot is free again");
        assert!(host.deadlocked().is_empty());
    }

    #[test]
    #[should_panic(expected = "delivery to unknown object")]
    fn a_delivery_to_a_retired_node_panics() {
        let (mut script, nodes) = instance(0);
        let mut host = SimHost::bridged(NetConfig::default(), N, u64::MAX, Vec::new());
        host.admit(&mut script, nodes.iter().copied(), SimTime::ZERO);
        assert!(!host.retire(&nodes), "its script is queued");
        host.run(&mut (), &mut ());
        assert!(host.retire(&nodes));
        assert!(host.node(nodes[0]).is_none());
        let late = Event::LeaveGranted(ActionId::new(0));
        host.net.schedule_local(host.net.now(), nodes[0], late);
        host.run(&mut (), &mut ());
    }
}
