//! The transport-generic drive loop: one participant over one
//! [`FifoPort`].
//!
//! This is the seam between the pure [`Participant`] state machine and
//! a real transport. The threaded engine runs it over in-process
//! crossbeam ports ([`caex_net::NodePort`]); `caex-wire` runs the very
//! same loop over TCP / Unix-domain sockets from separate OS
//! processes. The loop owns the node's local timer queue (scenario
//! steps and `Effect::After` continuations), relays `Effect::Send`s
//! into the port, and folds the transport's failure detector into the
//! protocol as ordinary local events through the same `handle` hook as
//! everything else: a [`FifoPort::take_crashed`] report becomes
//! [`Event::DeserterSuspected`] — so a crashed peer surfaces as a
//! *deserter* instead of hanging resolution — and an accrual
//! detector's [`FifoPort::take_suspected`] /
//! [`FifoPort::take_rejoined`] transitions become
//! [`Event::PeerSuspected`] / [`Event::PeerRejoined`] (the rejoin
//! re-forwards any commit the peer missed while it was unreachable).
//! Every event a port host applies therefore passes the hook — for an
//! instrumented caller, [`crate::ObsBridge::handle`].
//!
//! Timer semantics: due local events always fire before the next
//! receive. Two nodes that schedule steps at the same offset from a
//! shared start instant therefore each process their own step before
//! seeing the other's traffic, which is what makes concurrent-raise
//! scenarios deterministic over real sockets.

use crate::{Effect, Event, Note, Participant};
use caex_net::{FifoPort, RecvTimeoutError, SimTime};
use std::collections::BinaryHeap;
use std::time::{Duration, Instant};

/// A locally scheduled event (scenario step or `Effect::After`
/// continuation) with a stable tie-break for equal due times.
struct TimedEvent {
    due: Instant,
    seq: u64,
    event: Event,
}

impl PartialEq for TimedEvent {
    fn eq(&self, other: &Self) -> bool {
        self.due == other.due && self.seq == other.seq
    }
}
impl Eq for TimedEvent {}
impl PartialOrd for TimedEvent {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for TimedEvent {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        // Reversed: BinaryHeap is a max-heap, we want the earliest due.
        (other.due, other.seq).cmp(&(self.due, self.seq))
    }
}

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

/// Drives `participant` over `port` until quiescence.
///
/// `steps` are the node's scenario events, due at their [`SimTime`]
/// offset from `start` (micros become wall-clock micros). `handle` is
/// the event-application hook — the threaded engine passes a closure
/// that wraps [`Participant::handle`] with the observability bridge;
/// an un-instrumented caller passes `|p, ev, _| p.handle(ev)`. Its
/// third argument is the sending node for events received off the
/// transport and `None` for local events (timed steps and
/// failure-detector reports), so instrumented callers can emit
/// receive-side causality events. Every emitted
/// [`Note`] (including those from desertion handling) is fed to
/// `note`.
///
/// Termination is idle-based: the loop exits once the timer queue is
/// empty and neither a message nor a local event has fired for
/// `idle_timeout` (the paper's §4.5 points at group membership
/// services for a production-grade rule). It also exits when the
/// transport reports [`RecvTimeoutError::Disconnected`].
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
    H: FnMut(&mut Participant, Event, Option<caex_net::NodeId>) -> Vec<Effect>,
    N: FnMut(Note),
{
    drive_node_until(port, participant, steps, start, idle_timeout, None, handle, note)
}

/// Like [`drive_node`], but with an optional crash deadline.
///
/// When `halt_at` is set, the loop stops abruptly the first time it
/// observes `Instant::now() >= halt_at` — no farewell messages, no
/// draining of pending local steps — which is how the threaded engine
/// injects a mid-resolution crash (the in-process analogue of
/// `SIGKILL` in `caex-wire`). Messages still in the inbox are drained
/// into the per-kind drop statistics as usual, so [`caex_net::NetStats`]
/// stays balanced.
#[allow(clippy::too_many_arguments)]
pub fn drive_node_until<P, H, N>(
    port: &P,
    participant: &mut Participant,
    steps: Vec<(SimTime, Event)>,
    start: Instant,
    idle_timeout: Duration,
    halt_at: Option<Instant>,
    mut handle: H,
    mut note: N,
) -> DriveSummary
where
    P: FifoPort<Event>,
    H: FnMut(&mut Participant, Event, Option<caex_net::NodeId>) -> Vec<Effect>,
    N: FnMut(Note),
{
    let mut queue: BinaryHeap<TimedEvent> = BinaryHeap::new();
    for (seq, (time, event)) in steps.into_iter().enumerate() {
        queue.push(TimedEvent {
            due: start + Duration::from_micros(time.as_micros()),
            seq: seq as u64,
            event,
        });
    }
    let mut summary = DriveSummary::default();
    let mut seq = u64::MAX / 2;
    let mut last_activity = Instant::now();
    loop {
        if halt_at.is_some_and(|h| Instant::now() >= h) {
            break; // injected crash: stop mid-protocol, no farewell
        }
        // Fire due local events first.
        let now = Instant::now();
        let mut effects = Vec::new();
        while queue.peek().is_some_and(|t| t.due <= now) {
            let t = queue.pop().expect("peeked");
            effects.extend(handle(participant, t.event, None));
            last_activity = Instant::now();
        }
        // Then wait briefly for a message.
        let mut wait = queue
            .peek()
            .map(|t| t.due.saturating_duration_since(Instant::now()))
            .unwrap_or(Duration::from_millis(10))
            .min(Duration::from_millis(10));
        if let Some(h) = halt_at {
            wait = wait.min(h.saturating_duration_since(Instant::now()));
        }
        match port.recv_timeout(wait) {
            Ok((from, event)) => {
                effects.extend(handle(participant, event, Some(from)));
                last_activity = Instant::now();
            }
            Err(RecvTimeoutError::Timeout) => {}
            Err(RecvTimeoutError::Disconnected) => break,
        }
        // Fold failure-detector reports into the protocol. Suspicions
        // first (informational), then rejoins (commit re-forwarding),
        // then confirmations (exclusion) — so a peer that flapped and
        // died in one poll window is handled in causal order.
        for peer in port.take_suspected() {
            effects.extend(handle(participant, Event::PeerSuspected { peer }, None));
            last_activity = Instant::now();
        }
        for peer in port.take_rejoined() {
            effects.extend(handle(participant, Event::PeerRejoined { peer }, None));
            last_activity = Instant::now();
        }
        for peer in port.take_crashed() {
            effects.extend(handle(participant, Event::DeserterSuspected { peer }, None));
            summary.deserted += 1;
            last_activity = Instant::now();
        }
        for effect in effects.drain(..) {
            match effect {
                Effect::Send { to, msg } => {
                    port.send(to, Event::Msg(msg));
                }
                Effect::After { delay, event } => {
                    seq += 1;
                    queue.push(TimedEvent {
                        due: Instant::now() + Duration::from_micros(delay.as_micros()),
                        seq,
                        event,
                    });
                }
                Effect::Note(n) => note(n),
            }
        }
        if queue.is_empty() && last_activity.elapsed() > idle_timeout {
            break;
        }
    }
    summary.drained = port.drain_undelivered();
    summary
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::NestedStrategy;
    use caex_action::{ActionRegistry, ActionScope};
    use caex_net::{NodeId, ThreadNet};
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

    /// A silent transport whose detector reports, once, that node 1 was
    /// suspected, came back and then died.
    struct FlappingPort(std::cell::Cell<bool>);

    impl FlappingPort {
        fn once(&self) -> Vec<NodeId> {
            if self.0.get() {
                vec![NodeId::new(1)]
            } else {
                Vec::new()
            }
        }
    }

    impl FifoPort<Event> for FlappingPort {
        fn id(&self) -> NodeId {
            NodeId::new(0)
        }
        fn num_nodes(&self) -> u32 {
            2
        }
        fn send(&self, _to: NodeId, _payload: Event) -> bool {
            true
        }
        fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, Event), RecvTimeoutError> {
            thread::sleep(timeout.min(Duration::from_millis(1)));
            Err(RecvTimeoutError::Timeout)
        }
        fn take_suspected(&self) -> Vec<NodeId> {
            self.once()
        }
        fn take_rejoined(&self) -> Vec<NodeId> {
            self.once()
        }
        fn take_crashed(&self) -> Vec<NodeId> {
            let fired = self.once();
            self.0.set(false);
            fired
        }
    }

    #[test]
    fn detector_reports_reach_the_handle_hook_as_local_events() {
        let registry = Arc::new(ActionRegistry::new());
        let mut p = Participant::new(NodeId::new(0), registry, NestedStrategy::Abort);
        let mut seen = Vec::new();
        let mut notes = Vec::new();
        let summary = drive_node(
            &FlappingPort(std::cell::Cell::new(true)),
            &mut p,
            Vec::new(),
            Instant::now(),
            Duration::from_millis(20),
            |p, ev, from| {
                seen.push((ev.clone(), from));
                p.handle(ev)
            },
            |n| notes.push(n),
        );
        let peer = NodeId::new(1);
        assert_eq!(
            seen,
            vec![
                (Event::PeerSuspected { peer }, None),
                (Event::PeerRejoined { peer }, None),
                (Event::DeserterSuspected { peer }, None),
            ]
        );
        assert_eq!(summary.deserted, 1);
        // Same effects as the direct calls had: one note per transition.
        assert!(matches!(notes[0], Note::PeerSuspected { .. }));
        assert!(matches!(notes[1], Note::PeerRejoined { .. }));
        assert_eq!(p.deserters().len(), 1);
    }
}
