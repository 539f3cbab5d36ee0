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
//!    due-time then script order, and their effects are *buffered*.
//! 2. The shell waits for a message until the earliest of the next due
//!    local event, `MAX_WAIT` (10 ms) from the turn's start and the halt
//!    deadline.
//! 3. [`PortHost::end_turn`]: at most one received event is handled —
//!    *before* any local event that fell due during the wait, which
//!    fires on the next turn; then the detector's suspected, rejoined
//!    and crashed reports, in that order, so a peer that flapped and
//!    died in one poll window is handled in causal order; then every
//!    buffered effect is dispatched in the order it was produced
//!    (`Send` to the port, `After` onto the timer queue, `Note` to the
//!    hook); then the idle check.
//!
//! The effects of a due step therefore leave only after the wait that
//! follows it: up to `MAX_WAIT` of lag on a silent port (the
//! benchmark's `drive.step_lag`), until ROADMAP item 1b moves the
//! dispatch ahead of the wait. A step due at time zero still runs
//! before anything is received, which is what `caex-wire`'s
//! zero-clamped scripts rely on.

use crate::{Effect, Event, Note, Participant};
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
    effects: Vec<Effect>,
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

    /// Begins a turn at `now`: handles every local event due by then
    /// and returns the instant to wait for a message until, or `None`
    /// once the halt deadline has passed.
    pub fn begin_turn(&mut self, now: Instant) -> Option<Instant> {
        if self.halt_at.is_some_and(|h| now >= h) {
            return None; // injected crash: stop mid-protocol, no farewell
        }
        self.last_activity.get_or_insert(now);
        while let Some(due) = self.timers.first_entry().filter(|t| t.key().0 <= now) {
            let event = due.remove();
            self.apply(now, event, None);
        }
        let next_due = self.timers.keys().next().map(|&(due, _)| due);
        let deadlines = [Some(now + MAX_WAIT), next_due, self.halt_at];
        deadlines.into_iter().flatten().min()
    }

    /// Ends the turn at `now` with what the wait produced: the event
    /// `received` off the transport, if any, and the failure
    /// detector's reports since the last turn. Every effect buffered
    /// this turn is then dispatched, `Effect::Send`s through `send`.
    /// Returns `false` once the node is idle.
    pub fn end_turn(
        &mut self,
        now: Instant,
        received: Option<(NodeId, Event)>,
        suspected: Vec<NodeId>,
        rejoined: Vec<NodeId>,
        crashed: Vec<NodeId>,
        mut send: impl FnMut(NodeId, Event),
    ) -> bool {
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
        for effect in self.effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => send(to, Event::Msg(msg)),
                Effect::After { delay, event } => {
                    self.seq += 1;
                    self.timers.insert((now + micros(delay), self.seq), event);
                }
                Effect::Note(n) => (self.note)(n),
            }
        }
        let idle_since = self.last_activity.unwrap_or(now);
        !(self.timers.is_empty() && now.duration_since(idle_since) > self.idle_timeout)
    }

    /// The run's summary, given how many undelivered messages the
    /// transport drained at exit.
    pub fn finish(self, drained: usize) -> DriveSummary {
        DriveSummary { drained, ..self.summary }
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
    while let Some(wake) = host.begin_turn(Instant::now()) {
        let received = match port.recv_timeout(wake.saturating_duration_since(Instant::now())) {
            Ok(delivery) => Some(delivery),
            Err(RecvTimeoutError::Timeout) => None,
            Err(RecvTimeoutError::Disconnected) => break,
        };
        let (suspected, rejoined, crashed) =
            (port.take_suspected(), port.take_rejoined(), port.take_crashed());
        let live = host.end_turn(Instant::now(), received, suspected, rejoined, crashed, |to, ev| {
            port.send(to, ev);
        });
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
