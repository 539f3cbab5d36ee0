//! The port hosts' loop: one participant over one [`FifoPort`], as a
//! sans-I/O [`PortHost`] plus one blocking shell.
//!
//! This is the seam between the pure [`Participant`] state machine and
//! a real transport. The threaded engine runs it over in-process
//! channel ports ([`caex_net::NodePort`]); `caex-wire` runs the very
//! same loop over TCP / Unix-domain sockets from separate OS
//! processes. [`PortHost`] owns the node's local timer queue (scenario
//! steps and `Effect::After` continuations) and decides everything
//! about a turn of the loop; it is told the time and what the port
//! produced, and never reads a clock or a port itself, so the order
//! below is pinned under virtual time (`crates/caex/tests/port_host.rs`).
//! [`drive_node`] is the shell: it reads the clock, blocks in
//! [`FifoPort::recv_timeout`] and relays `Effect::Send`s into the port.
//! Effects go through [`crate::route`], the dispatch every host shares,
//! into the turn's [`Outbox`], which keeps the order below.
//!
//! The transport's failure detector is folded into the protocol as
//! ordinary local events through the same `handle` hook as everything
//! else: a [`FifoPort::take_crashed`] report becomes
//! [`Event::DeserterSuspected`] — so a crashed peer surfaces as a
//! *deserter* instead of hanging resolution — and an accrual
//! detector's [`FifoPort::take_suspected`] /
//! [`FifoPort::take_rejoined`] transitions become
//! [`Event::PeerSuspected`] / [`Event::PeerRejoined`] (the rejoin
//! re-forwards any commit the peer missed while it was unreachable).
//! Every event a port host applies therefore passes the hook — for an
//! instrumented caller, [`crate::ObsBridge::handle`].
//!
//! # The order of a turn
//!
//! 1. [`PortHost::begin_turn`]: past the halt deadline the loop stops
//!    at once; otherwise every local event due by now is handled, in
//!    due-time then script order. Their `Send`s leave at once; their
//!    `After`s and `Note`s are *held*.
//! 2. The shell waits for a message until the earliest of the next due
//!    local event, `MAX_WAIT` (10 ms) from the turn's start and the halt
//!    deadline.
//! 3. [`PortHost::end_turn`]: unless the halt deadline has passed, the
//!    local events that fell due during the wait are handled first, as
//!    in step 1 — a step due before the message was taken off the port
//!    comes before it. Then at most one received event is handled, then
//!    the detector's suspected, rejoined and crashed reports, in that
//!    order, so a peer that flapped and died in one poll window is
//!    handled in causal order. Then the effects are routed in the order
//!    they were produced: the `After`s and `Note`s held before the
//!    wait, then everything the turn's own events produced (`Send` to
//!    the port, `After` onto the timer queue, `Note` to the hook); then
//!    the idle check.
//!
//! A due step's messages therefore leave with no lag, and a step's
//! `After`s and `Note`s are applied only at the end of the wait that
//! follows it. Notes are held on purpose: the note hook is how the
//! benchmark's coordinator, `caex-wire`'s coordinator and the threaded
//! engine learn that a node is done, and a coordinator may end the
//! round on `Note::Completed`. Held, `Completed` is reported only after
//! one more wait, so a straggler that arrives in it (a `HaveNested` or
//! `NestedCompleted` on a slow link) is handled, as a stale message,
//! before the round can stop and drain it. Moving notes ahead of the
//! wait needs a round stop that lets in-flight traffic settle first
//! (ROADMAP item 1a-(i)). A step due at time zero still runs before
//! anything is received, which is what `caex-wire`'s zero-clamped
//! scripts rely on.

use crate::{route, Effect, Event, Note, Outbox, Participant};
use caex_net::{FifoPort, NodeId, RecvTimeoutError, SimTime};
use std::collections::BTreeMap;
use std::time::{Duration, Instant};

/// The longest the shell blocks in one receive: the detector is polled
/// and the idle and halt checks run at least this often.
const MAX_WAIT: Duration = Duration::from_millis(10);

/// What one node's drive loop did, beyond the protocol itself.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct DriveSummary {
    /// Messages still undelivered in the inbox at exit; each was
    /// recorded as a per-kind drop by [`FifoPort::drain_undelivered`].
    pub drained: usize,
    /// Peers the failure detector reported and the participant
    /// excluded as deserters.
    pub deserted: usize,
}

/// One node's side of the port loop, without the port and without the
/// clock: the participant, its timer queue, the effects of the turn in
/// progress, the optional halt deadline, the idle clock and the
/// [`DriveSummary`]. See the module documentation for the order of a
/// turn; [`drive_node`] is the shell that feeds it from a real port.
///
/// `handle` is the event-application hook — the threaded engine passes
/// a closure that wraps [`Participant::handle`] with the observability
/// bridge; an un-instrumented caller passes `|p, ev, _| p.handle(ev)`.
/// Its third argument is the sending node for events received off the
/// transport and `None` for local events (timed steps and
/// failure-detector reports), so instrumented callers can emit
/// receive-side causality events. Every emitted [`Note`] (including
/// those from desertion handling) is fed to `note`.
pub struct PortHost<'a, H, N> {
    participant: &'a mut Participant,
    handle: H,
    note: N,
    /// Local events (scenario steps and `Effect::After` continuations)
    /// by due time, then by a sequence number that keeps equal due
    /// times in script order, continuations last.
    timers: BTreeMap<(Instant, u64), Event>,
    /// Sequence number of the last `Effect::After` scheduled.
    seq: u64,
    /// Effects of the events handled since they were last routed.
    effects: Vec<Effect>,
    /// `After`s and `Note`s of fired local events, held until the end
    /// of the wait that follows them.
    held: Vec<Effect>,
    halt_at: Option<Instant>,
    idle_timeout: Duration,
    /// When an event was last handled; starts at the first turn.
    last_activity: Option<Instant>,
    summary: DriveSummary,
}

impl<'a, H, N> PortHost<'a, H, N>
where
    H: FnMut(&mut Participant, Event, Option<NodeId>) -> Vec<Effect>,
    N: FnMut(Note),
{
    /// A host for `participant` whose scenario `steps` fall due at
    /// their [`SimTime`] offset from `start` (micros become wall-clock
    /// micros), idle once the timer queue is empty and nothing was
    /// handled for longer than `idle_timeout`.
    pub fn new(
        participant: &'a mut Participant,
        steps: Vec<(SimTime, Event)>,
        start: Instant,
        idle_timeout: Duration,
        handle: H,
        note: N,
    ) -> Self {
        let timers = (0..)
            .zip(steps)
            .map(|(seq, (time, event))| ((start + micros(time), seq), event))
            .collect();
        PortHost {
            participant,
            handle,
            note,
            timers,
            seq: u64::MAX / 2,
            effects: Vec::new(),
            held: Vec::new(),
            halt_at: None,
            idle_timeout,
            last_activity: None,
            summary: DriveSummary::default(),
        }
    }

    /// Sets or clears the crash deadline: a turn that begins at or
    /// after it does not run — no farewell messages, no draining of
    /// pending local steps — which is how the threaded engine injects a
    /// mid-resolution crash (the in-process analogue of `SIGKILL` in
    /// `caex-wire`).
    pub fn halt_at(&mut self, deadline: Option<Instant>) {
        self.halt_at = deadline;
    }

    fn apply(&mut self, now: Instant, event: Event, from: Option<NodeId>) {
        let effects = (self.handle)(self.participant, event, from);
        self.effects.extend(effects);
        self.last_activity = Some(now);
    }

    fn halted(&self, now: Instant) -> bool {
        self.halt_at.is_some_and(|h| now >= h)
    }

    /// Handles every local event due by `now`, in due-time then script
    /// order. Their `Send`s leave at once; their `After`s and `Note`s
    /// are held for the end of the wait that follows.
    fn fire_due(&mut self, now: Instant, send: &mut impl FnMut(NodeId, Event)) {
        while let Some(due) = self.timers.first_entry().filter(|t| t.key().0 <= now) {
            let event = due.remove();
            self.apply(now, event, None);
        }
        self.flush(now, true, send);
    }

    /// Routes the buffered effects, in the order they were produced,
    /// into the turn's outbox.
    fn flush(&mut self, now: Instant, hold: bool, port: &mut impl FnMut(NodeId, Event)) {
        let (me, mut effects) = (self.participant.id(), std::mem::take(&mut self.effects));
        route(me, effects.drain(..), &mut Turn { host: self, port, now, hold }, &mut Turn::hear);
        self.effects = effects;
    }

    /// Begins a turn at `now`: handles every local event due by then,
    /// sends their messages through `send`, and returns the instant to
    /// wait for a message until, or `None` once the halt deadline has
    /// passed.
    pub fn begin_turn(
        &mut self,
        now: Instant,
        mut send: impl FnMut(NodeId, Event),
    ) -> Option<Instant> {
        if self.halted(now) {
            return None; // injected crash: stop mid-protocol, no farewell
        }
        self.last_activity.get_or_insert(now);
        self.fire_due(now, &mut send);
        let next_due = self.timers.keys().next().map(|&(due, _)| due);
        let deadlines = [Some(now + MAX_WAIT), next_due, self.halt_at];
        deadlines.into_iter().flatten().min()
    }

    /// Ends the turn at `now` with what the wait produced: the event
    /// `received` off the transport, if any, and the failure
    /// detector's reports since the last turn. Local events that fell
    /// due during the wait are handled first, as in
    /// [`PortHost::begin_turn`]; then the effects held before the wait
    /// and those of the turn's own events are routed, `Effect::Send`s
    /// through `send`. Returns `false` once the node is idle.
    pub fn end_turn(
        &mut self,
        now: Instant,
        received: Option<(NodeId, Event)>,
        suspected: Vec<NodeId>,
        rejoined: Vec<NodeId>,
        crashed: Vec<NodeId>,
        mut send: impl FnMut(NodeId, Event),
    ) -> bool {
        // The wait that followed these effects' steps is over.
        let ready = std::mem::take(&mut self.held);
        if !self.halted(now) {
            self.fire_due(now, &mut send);
        }
        if let Some((from, event)) = received {
            self.apply(now, event, Some(from));
        }
        for peer in suspected {
            self.apply(now, Event::PeerSuspected { peer }, None);
        }
        for peer in rejoined {
            self.apply(now, Event::PeerRejoined { peer }, None);
        }
        for peer in crashed {
            self.apply(now, Event::DeserterSuspected { peer }, None);
            self.summary.deserted += 1;
        }
        self.effects.splice(0..0, ready);
        self.flush(now, false, &mut send);
        let idle_since = self.last_activity.unwrap_or(now);
        !(self.timers.is_empty() && now.duration_since(idle_since) > self.idle_timeout)
    }

    /// The run's summary, given how many undelivered messages the
    /// transport drained at exit.
    pub fn finish(self, drained: usize) -> DriveSummary {
        DriveSummary { drained, ..self.summary }
    }
}

/// The outbox of one turn's effects, in the order of a turn (see the
/// module documentation): a `Send` leaves through the port as soon as
/// its step's effects are routed; an `After` joins the timer queue and
/// a `Note` goes to the hook — or, with `hold`, both wait in `held` for
/// the end of the wait that follows, when they are routed again.
struct Turn<'t, 'a, H, N, S> {
    host: &'t mut PortHost<'a, H, N>,
    port: &'t mut S,
    now: Instant,
    hold: bool,
}

impl<H, N: FnMut(Note), S> Turn<'_, '_, H, N, S> {
    fn hear(&mut self, note: Note) {
        if self.hold {
            self.host.held.push(Effect::Note(note));
        } else {
            (self.host.note)(note);
        }
    }
}

impl<H, N, S: FnMut(NodeId, Event)> Outbox for Turn<'_, '_, H, N, S> {
    type Event = Event;

    fn send(&mut self, _: NodeId, to: NodeId, event: Event) {
        (self.port)(to, event);
    }

    fn after(&mut self, _: NodeId, delay: SimTime, event: Event) {
        if self.hold {
            return self.host.held.push(Effect::After { delay, event });
        }
        self.host.seq += 1;
        self.host.timers.insert((self.now + micros(delay), self.host.seq), event);
    }
}

fn micros(time: SimTime) -> Duration {
    Duration::from_micros(time.as_micros())
}

/// Drives `participant` over `port` until quiescence: the blocking
/// shell of a [`PortHost`] built from `participant`, `steps`, `start`,
/// `idle_timeout` and the two hooks (see [`PortHost`]).
///
/// Termination is idle-based: the loop exits once the timer queue is
/// empty and neither a message nor a local event has fired for
/// `idle_timeout` (the paper's §4.5 points at group membership
/// services for a production-grade rule). It also exits when the
/// transport reports [`RecvTimeoutError::Disconnected`]. Messages still
/// in the inbox at exit are drained into the per-kind drop statistics,
/// so [`caex_net::NetStats`] stays balanced.
pub fn drive_node<P, H, N>(
    port: &P,
    participant: &mut Participant,
    steps: Vec<(SimTime, Event)>,
    start: Instant,
    idle_timeout: Duration,
    handle: H,
    note: N,
) -> DriveSummary
where
    P: FifoPort<Event>,
    H: FnMut(&mut Participant, Event, Option<NodeId>) -> Vec<Effect>,
    N: FnMut(Note),
{
    drive(port, PortHost::new(participant, steps, start, idle_timeout, handle, note))
}

/// The shell proper, for a caller that configured the host itself (the
/// threaded engine sets a halt deadline).
pub(crate) fn drive<P, H, N>(port: &P, mut host: PortHost<'_, H, N>) -> DriveSummary
where
    P: FifoPort<Event>,
    H: FnMut(&mut Participant, Event, Option<NodeId>) -> Vec<Effect>,
    N: FnMut(Note),
{
    let mut send = |to, ev| {
        port.send(to, ev);
    };
    while let Some(wake) = host.begin_turn(Instant::now(), &mut send) {
        let received = match port.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(delivery) => Some(delivery),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let (suspected, rejoined, crashed) =
            (port.take_suspected(), port.take_rejoined(), port.take_crashed());
        let live = host.end_turn(Instant::now(), received, suspected, rejoined, crashed, &mut send);
        if !live {
            break;
        }
    }
    host.finish(port.drain_undelivered())
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedStrategy;
    use caex_action::{ActionRegistry, ActionScope};
    use caex_net::ThreadNet;
    use caex_tree::{chain_tree, Exception, ExceptionId};
    use std::sync::Arc;
    use std::thread;

    #[test]
    fn two_nodes_resolve_over_the_generic_loop() {
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level(
                "A",
                (0..2).map(NodeId::new),
                tree,
            ))
            .unwrap();
        let registry = Arc::new(reg);
        let net: ThreadNet<Event> = ThreadNet::new(2);
        let ports = net.into_ports();
        let start = Instant::now();
        let mut joins = Vec::new();
        for port in ports {
            let registry = Arc::clone(&registry);
            joins.push(thread::spawn(move || {
                let id = FifoPort::<Event>::id(&port);
                let mut p = Participant::new(id, registry, NestedStrategy::Abort);
                let mut steps = vec![(SimTime::ZERO, Event::Enter(a))];
                if id == NodeId::new(0) {
                    steps.push((
                        SimTime::from_millis(1),
                        Event::Raise(Exception::new(ExceptionId::new(1))),
                    ));
                }
                let mut notes = Vec::new();
                drive_node(
                    &port,
                    &mut p,
                    steps,
                    start,
                    Duration::from_millis(150),
                    |p, ev, _| p.handle(ev),
                    |n| notes.push(n),
                );
                notes
            }));
        }
        let all: Vec<Note> = joins
            .into_iter()
            .flat_map(|j| j.join().expect("node thread"))
            .collect();
        let handled = all
            .iter()
            .filter(|n| matches!(n, Note::HandlerStarted { .. }))
            .count();
        assert_eq!(handled, 2, "both objects handled the resolved exception");
    }
}
