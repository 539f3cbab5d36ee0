//! The order of a [`PortHost`] turn, pinned under virtual time.
//!
//! [`Mesh`] is a test double of `caex::drive::drive_node`'s blocking
//! shell: it feeds N hosts from one `SimNet<Event>` instead of N
//! ports and a wall clock. A message is a net delivery; the end of a
//! host's wait is a local event scheduled at the instant
//! [`PortHost::begin_turn`] returned; a failure-detector report is an
//! entry in the node's inbox like a message (the node sends it to
//! itself); a crash is [`PortHost::halt_at`]. Every `handle`, `send` and `note` call goes
//! to one log, stamped with the virtual microsecond it happened at, so
//! each test asserts an exact call sequence.
//!
//! Three of them pin where the turn's two halves split the effects: a
//! due step's sends leave at once
//! ([`a_due_steps_sends_leave_at_once_and_its_notes_after_the_wait`]), a
//! step due during the wait is handled before the message that ended
//! it ([`a_step_due_during_the_wait_is_handled_before_the_message`]),
//! and a step's notes and continuations wait for the end of the wait
//! that follows it
//! ([`completed_is_noted_only_after_the_wait_that_follows_handler_done`]).
//!
//! The rest pin where a run ends: at the §4.2 exit line, once every
//! live peer's `LeaveReady` is in, and never on the idle rule while the
//! participant waits for a peer.

use caex::drive::{DriveSummary, PortHost};
use caex::{workloads, Effect, Event, Msg, NestedStrategy, Note, Participant};
use caex_action::{
    AbortionOutcome, ActionId, ActionRegistry, ActionScope, HandlerOutcome, HandlerTable,
};
use caex_net::{DeliverySource, Kinded, LatencyModel, NetConfig, NodeId, SimNet, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every hook call of a run, as `"<micros> <node> <what>"`, every note
/// in full, and in one order each message's delivery and each
/// completion as `(node, action, completed)`.
#[derive(Default)]
struct Log {
    now: Cell<u64>,
    calls: RefCell<Vec<String>>,
    notes: RefCell<Vec<Note>>,
    deliveries: RefCell<Vec<(NodeId, ActionId, bool)>>,
}

impl Log {
    fn push(&self, node: NodeId, what: String) {
        self.calls.borrow_mut().push(format!("{} {node} {what}", self.now.get()));
    }
}

type Handle<'a> = Box<dyn FnMut(&mut Participant, Event, Option<NodeId>) -> Vec<Effect> + 'a>;
type Host<'a> = PortHost<'a, Handle<'a>, Box<dyn FnMut(Note) + 'a>>;

/// The payload of a wake-up; only its being a local delivery matters.
fn wake_up() -> Event {
    Event::Complete(ActionId::new(u32::MAX))
}

fn instant(epoch: Instant, t: SimTime) -> Instant {
    epoch + Duration::from_micros(t.as_micros())
}

/// See the module documentation.
struct Mesh<'a> {
    net: SimNet<Event>,
    /// Virtual time zero as an `Instant`; only differences matter.
    epoch: Instant,
    /// `None` once the node left its loop (idle or halted).
    hosts: Vec<Option<Host<'a>>>,
    left: Vec<Option<(SimTime, Host<'a>)>>,
    /// The end of each node's current wait.
    wake_at: Vec<SimTime>,
    /// Messages that arrived after the node left.
    undelivered: Vec<usize>,
    log: Rc<Log>,
}

impl<'a> Mesh<'a> {
    /// One host per participant, each with its own `steps`.
    fn new(
        config: NetConfig,
        participants: &'a mut [Participant],
        steps: impl Fn(NodeId) -> Vec<(SimTime, Event)>,
        idle_timeout: Duration,
    ) -> Self {
        let epoch = Instant::now();
        let log = Rc::new(Log::default());
        let n = participants.len();
        let hosts = participants
            .iter_mut()
            .map(|p| {
                let node = p.id();
                let (on_handle, on_note) = (Rc::clone(&log), Rc::clone(&log));
                let handle: Handle<'a> = Box::new(move |p, event, from| {
                    if let Event::Msg(msg) = &event {
                        on_handle.deliveries.borrow_mut().push((node, msg.action(), false));
                    }
                    let from = from.map_or(String::new(), |f| format!(" from {f}"));
                    on_handle.push(node, format!("handle {}{from}", event.kind()));
                    p.handle(event)
                });
                let note = Box::new(move |note: Note| {
                    if let Note::Completed { action, .. } = note {
                        on_note.deliveries.borrow_mut().push((node, action, true));
                    }
                    let debug = format!("{note:?}");
                    let name = debug.split([' ', '{']).next().unwrap_or_default();
                    on_note.push(node, format!("note {name}"));
                    on_note.notes.borrow_mut().push(note);
                });
                Some(PortHost::new(p, steps(node), epoch, idle_timeout, handle, note as _))
            })
            .collect();
        Mesh {
            net: SimNet::new(config, n as u32),
            epoch,
            hosts,
            left: (0..n).map(|_| None).collect(),
            wake_at: vec![SimTime::ZERO; n],
            undelivered: vec![0; n],
            log,
        }
    }

    /// Queues a failure-detector report in `node`'s inbox, behind what
    /// is already in flight to it.
    fn report(&mut self, node: u32, event: Event) {
        let node = NodeId::new(node);
        self.net.send(node, node, event);
    }

    /// Crashes `node` at `t`: a method call on its host.
    fn crash(&mut self, node: u32, t: SimTime) {
        let host = self.hosts[node as usize].as_mut().expect("live node");
        host.halt_at(Some(instant(self.epoch, t)));
    }

    /// The first half of a turn, and the wait that follows it.
    fn begin(&mut self, i: usize, t: SimTime) {
        self.log.now.set(t.as_micros());
        let host = self.hosts[i].as_mut().expect("live node");
        let (net, log, node) = (&mut self.net, &self.log, NodeId::new(i as u32));
        let send = |dest, event: Event| {
            log.push(node, format!("send {} to {dest}", event.kind()));
            net.send(node, dest, event);
        };
        match host.begin_turn(instant(self.epoch, t), send) {
            Some(wake) => {
                let wake = SimTime::from_micros((wake - self.epoch).as_micros() as u64);
                assert!(wake > t, "O{i} would spin: told at {t} to wait until {wake}");
                self.wake_at[i] = wake;
                self.net.schedule_local(wake, NodeId::new(i as u32), wake_up());
            }
            None => self.leave(i, t),
        }
    }

    /// The node's loop ended at `t` (idle or halted).
    fn leave(&mut self, i: usize, t: SimTime) {
        self.left[i] = Some((t, self.hosts[i].take().expect("live node")));
    }

    /// Every node begins its first turn at virtual time zero; runs
    /// until all have left their loops and the net is empty.
    fn run(&mut self) {
        for i in 0..self.hosts.len() {
            self.begin(i, SimTime::ZERO);
        }
        while let Some(delivery) = self.net.next_delivery() {
            let (t, to, i) = (delivery.at, delivery.to, delivery.to.index() as usize);
            let received = match delivery.source {
                DeliverySource::Remote(from) => Some((from, delivery.payload)),
                DeliverySource::Local if t == self.wake_at[i] => None,
                // The wake-up of a wait that a message ended early.
                DeliverySource::Local => continue,
            };
            let Some(host) = self.hosts[i].as_mut() else {
                self.undelivered[i] += usize::from(received.is_some());
                continue;
            };
            self.log.now.set(t.as_micros());
            let (net, log) = (&mut self.net, &self.log);
            let now = instant(self.epoch, t);
            let live = host.end_turn(now, received, |dest, event| {
                log.push(to, format!("send {} to {dest}", event.kind()));
                net.send(to, dest, event);
            });
            if live {
                self.begin(i, t);
            } else {
                self.leave(i, t);
            }
        }
    }

    /// When each node left its loop and what its host summarised.
    fn finish(self) -> Vec<(SimTime, DriveSummary)> {
        assert!(self.hosts.iter().all(Option::is_none), "a node is still running");
        self.left
            .into_iter()
            .zip(self.undelivered)
            .map(|(left, drained)| {
                let (t, host) = left.expect("every node left");
                (t, host.finish(drained))
            })
            .collect()
    }

    fn calls(&self) -> Vec<String> {
        self.log.calls.borrow().clone()
    }

    /// The calls of one node, in order.
    fn calls_of(&self, node: u32) -> Vec<String> {
        let tag = format!(" {} ", NodeId::new(node));
        self.calls().into_iter().filter(|c| c.contains(&tag)).collect()
    }

    /// The `handle` calls of one node, in order.
    fn handles_of(&self, node: u32) -> Vec<String> {
        self.calls_of(node).into_iter().filter(|c| c.contains(" handle ")).collect()
    }

    /// The messages handled by a node after it completed their action.
    fn late_deliveries(&self) -> Vec<(NodeId, ActionId)> {
        let mut completed = Vec::new();
        let mut late = Vec::new();
        for &(node, action, done) in self.log.deliveries.borrow().iter() {
            if done {
                completed.push((node, action));
            } else if completed.contains(&(node, action)) {
                late.push((node, action));
            }
        }
        late
    }
}

/// When a call was made: the micros that start it.
fn micros_of(call: &str) -> u64 {
    call.split(' ').next().and_then(|t| t.parse().ok()).expect("a stamped call")
}

const IDLE: Duration = Duration::from_millis(25);

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

fn exc(id: u32) -> Exception {
    Exception::new(ExceptionId::new(id))
}

/// One top-level action of `n` objects over a two-exception chain.
fn flat_registry(n: u32) -> (Arc<ActionRegistry>, ActionId) {
    let mut registry = ActionRegistry::new();
    let action = registry
        .declare(ActionScope::top_level("A", (0..n).map(NodeId::new), Arc::new(chain_tree(2))))
        .unwrap();
    (Arc::new(registry), action)
}

/// `n` participants of one top-level action over a two-exception chain.
fn flat_action(n: u32) -> (Vec<Participant>, ActionId) {
    let (registry, action) = flat_registry(n);
    let participants = (0..n)
        .map(|i| Participant::new(NodeId::new(i), Arc::clone(&registry), NestedStrategy::Abort))
        .collect();
    (participants, action)
}

/// (a) An `Exception` from O0 reaches O1 at 5 000 µs, the very instant
/// O1's own raise falls due. The step was due before the message was
/// taken off the port, so `end_turn` handles it first and its `Send`
/// leaves at once; its notes wait for the end of the next wait, while
/// the `Entered` held since 0 µs goes out now.
#[test]
fn a_step_due_during_the_wait_is_handled_before_the_message() {
    let (mut participants, a) = flat_action(2);
    let steps = |node: NodeId| match node.index() {
        0 => Vec::new(),
        _ => vec![(ms(0), Event::Enter(a)), (ms(5), Event::Raise(exc(2)))],
    };
    let slow = NetConfig::default().with_latency(LatencyModel::Constant(ms(5)));
    let mut mesh = Mesh::new(slow, &mut participants, steps, IDLE);
    // In flight before O1 begins the wait that ends at 5 000 µs.
    let (from, to) = (NodeId::new(0), NodeId::new(1));
    mesh.net.send(from, to, Event::Msg(Msg::Exception { action: a, from, exc: exc(1) }));
    mesh.run();
    assert_eq!(
        mesh.calls_of(1),
        [
            "0 O1 handle local_enter",
            "5000 O1 handle local_raise",
            "5000 O1 send exception to O0",
            "5000 O1 handle exception from O0",
            "5000 O1 note Entered",
            "5000 O1 send ack to O0",
            "15000 O1 note Raised",
            "15000 O1 note Multicast",
        ]
    );
}

/// (b) The `Send`s of a step handled at 0 µs leave at once, before the
/// wait; its notes follow only when O1's ack ends that wait at 200 µs.
#[test]
fn a_due_steps_sends_leave_at_once_and_its_notes_after_the_wait() {
    let (mut participants, a) = flat_action(2);
    let steps = |node: NodeId| match node.index() {
        0 => vec![(ms(0), Event::Enter(a)), (ms(0), Event::Raise(exc(1)))],
        _ => vec![(ms(0), Event::Enter(a))],
    };
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, steps, IDLE);
    mesh.run();
    assert_eq!(
        mesh.calls_of(0)[..7],
        [
            "0 O0 handle local_enter",
            "0 O0 handle local_raise",
            "0 O0 send exception to O1",
            "200 O0 handle ack from O1",
            "200 O0 note Entered",
            "200 O0 note Raised",
            "200 O0 note Multicast",
        ]
    );
}

/// (c) Detector reports come off the port in FIFO position among the
/// messages, one per turn: a peer that flapped and died after its last
/// message is handled in causal order — the message, then suspected,
/// rejoined, crashed, each followed by its note — and counted as one
/// deserter.
#[test]
fn detector_reports_are_handled_suspected_then_rejoined_then_crashed() {
    let (mut participants, a) = flat_action(2);
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, |_| Vec::new(), IDLE);
    // O0's last message (buffered: O1 has not entered the action) is
    // in O1's inbox ahead of the three reports about O0; all four
    // arrive at 100 µs.
    let (o0, o1) = (NodeId::new(0), NodeId::new(1));
    mesh.net.send(o0, o1, Event::Msg(Msg::Ack { from: o0, action: a }));
    mesh.report(1, Event::PeerSuspected { peer: o0 });
    mesh.report(1, Event::PeerRejoined { peer: o0 });
    mesh.report(1, Event::DeserterSuspected { peer: o0 });
    mesh.run();
    assert_eq!(
        mesh.calls_of(1),
        [
            "100 O1 handle ack from O0",
            "100 O1 handle local_peer_suspected",
            "100 O1 note PeerSuspected",
            "100 O1 handle local_peer_rejoined",
            "100 O1 note PeerRejoined",
            "100 O1 handle local_deserter_suspected",
            "100 O1 note Deserted",
        ]
    );
    let summaries = mesh.finish();
    assert_eq!(summaries[1].1.deserted, 1);
    assert_eq!(summaries[0].1.deserted, 0);
    assert_eq!(participants[1].deserters(), [o0]);
}

/// (d) A halt deadline stops the loop mid-protocol: the wait is cut
/// short at the deadline and no turn begins after it — no farewell,
/// the step due later never fires, and what reaches the node later is
/// drained, not handled.
#[test]
fn halt_at_stops_mid_protocol_with_pending_steps_unfired() {
    let (mut participants, a) = flat_action(2);
    let steps = |node: NodeId| match node.index() {
        0 => vec![
            (ms(0), Event::Enter(a)),
            (ms(0), Event::Raise(exc(1))),
            (ms(7), Event::Raise(exc(2))),
        ],
        _ => vec![(ms(0), Event::Enter(a))],
    };
    // O1's replies take 6 ms: whenever it acknowledges, O0 is gone.
    let slow_back = LatencyModel::Constant(ms(6));
    let config = NetConfig::default().with_link_latency(NodeId::new(1), NodeId::new(0), slow_back);
    let mut mesh = Mesh::new(config, &mut participants, steps, IDLE);
    mesh.crash(0, ms(5));
    mesh.run();
    let o0 = mesh.calls_of(0);
    let raises = o0.iter().filter(|c| c.ends_with("handle local_raise")).count();
    assert_eq!(raises, 1, "the raise due at 7 ms never fires: {o0:#?}");
    let sent_to_o0 = mesh.calls_of(1).iter().filter(|c| c.ends_with(" to O0")).count();
    let handled = o0.iter().filter(|c| c.ends_with(" from O1")).count();
    let summary = mesh.finish()[0];
    assert_eq!(summary.0, ms(5), "the deadline cuts the 10 ms wait short");
    assert!(summary.1.drained >= 1, "O1's ack arrives after the crash");
    assert_eq!(handled + summary.1.drained, sent_to_o0, "drained, not handled");
}

/// (e) The idle exit needs an empty timer queue: a node silent for
/// twice its idle timeout stays while a step is pending, and leaves at
/// the first poll more than the timeout after that step.
#[test]
fn idle_exit_waits_for_an_empty_timer_queue() {
    let (mut participants, a) = flat_action(1);
    let steps = |_| vec![(ms(50), Event::Enter(a))];
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, steps, IDLE);
    mesh.run();
    assert_eq!(mesh.handles_of(0), ["50000 O0 handle local_enter"]);
    // Polls at 60, 70 and 80 ms: 30 ms of silence is the first beyond 25.
    assert_eq!(mesh.finish()[0].0, ms(80));
}

/// `general(n, p, q)` through [`caex::Scenario::for_port_host`] over
/// `n` hosts on links jittered by `seed` (FIFO per link, as the port
/// hosts' transports are); returns the mesh after the run.
fn general_mesh<'a>(
    (n, p, q): (u32, u32, u32),
    seed: u64,
    participants: &'a mut Vec<Participant>,
) -> Mesh<'a> {
    let config = NetConfig::default().with_seed(seed).with_latency(LatencyModel::Uniform {
        min: SimTime::from_micros(50),
        max: SimTime::from_micros(400),
    });
    let workload = workloads::general(n, p, q, NetConfig::default());
    let mut script = workload.scenario.for_port_host();
    *participants = workload.participants.iter().map(|&node| script.participant(node)).collect();
    let mut mesh = Mesh::new(config, participants, |node| script.steps_for(node), IDLE);
    mesh.run();
    mesh
}

/// One `general(3, 2, 1)` run over three hosts, jittered by `seed`: each
/// host ends at its exit line, at the turn that notes its `Completed`.
fn general_run(seed: u64) -> Vec<String> {
    let top = workloads::general(3, 2, 1, NetConfig::default()).action;
    let mut participants = Vec::new();
    let mesh = general_mesh((3, 2, 1), seed, &mut participants);
    let calls = mesh.calls();
    let sends = calls.iter().filter(|c| c.contains(" send ")).count();
    let leave_ready = calls.iter().filter(|c| c.contains(" send leave_ready ")).count();
    assert_eq!(sends - leave_ready, 16, "§4.4: (N−1)(2P+3Q+1) = 16 messages");
    assert_eq!(leave_ready, 6, "the exit line: N(N−1) = 6 announcements");
    assert_eq!(mesh.net.stats().sent_total(), 22);
    assert_eq!(mesh.late_deliveries(), []);
    let last_calls: Vec<String> =
        (0..3).map(|node| mesh.calls_of(node).last().cloned().unwrap()).collect();
    let handled: Vec<ExceptionId> = mesh
        .log
        .notes
        .borrow()
        .iter()
        .filter_map(|n| match n {
            Note::HandlerStarted { action, exc, .. } if *action == top => Some(exc.id()),
            _ => None,
        })
        .collect();
    assert_eq!(handled, [ExceptionId::new(1); 3], "agreement on the resolved exception");
    for ((left, summary), last) in mesh.finish().into_iter().zip(last_calls) {
        assert_eq!(summary, DriveSummary::default(), "nothing drained, deserted or capped");
        assert!(last.ends_with(" note Completed"), "the last call is the leave: {last}");
        assert_eq!(left.as_micros(), micros_of(&last), "no turn after the leave: {last}");
    }
    assert!(participants.iter().all(|p| p.is_normal() && p.is_through()));
    calls
}

/// (f) The §4.4 general workload over three hosts: agreement on the
/// resolved exception, exactly 16 messages plus the exit line's 6, each
/// host ending at its exit line, and a replayable run.
#[test]
fn general_3_2_1_agrees_in_16_messages_and_replays() {
    let first = general_run(7);
    assert_eq!(first, general_run(7), "same seed, same call sequence");
    assert_ne!(first, general_run(8), "the seed reaches the net");
}

/// (g) The handler's end brings O1 to the exit line, not out of the
/// action: O0's stragglers, its `NestedCompleted` and `Ack`, are
/// handled before O1 leaves on O0's `LeaveReady`, which they precede on
/// the link. An `After` of a due step reaches the timer queue only at
/// `end_turn`, and a `Note` waits for the end of the wait that follows
/// the step that produced it.
#[test]
fn completed_is_noted_only_after_the_wait_that_follows_handler_done() {
    // general(3, 2, 1): O0 is in the nested action and takes 5 ms to
    // abort it, and its link to O1 takes 5 ms, so O1 accepts the
    // `Commit` at 5 302 µs and O0's `NestedCompleted` and `Ack` reach
    // it only at 10 102 µs, its `LeaveReady` at 10 302 µs.
    let workload = workloads::general(3, 2, 1, NetConfig::default());
    // `general` declares O0's nested action right after the top one.
    let (o0, o1, nested) = (NodeId::new(0), NodeId::new(1), ActionId::new(1));
    let mut slow_abort = HandlerTable::recover_all(Arc::new(chain_tree(2)));
    slow_abort.on_abort(ms(5), || AbortionOutcome::Aborted);
    let mut script = workload.scenario.handlers(o0, nested, slow_abort).for_port_host();
    let mut participants: Vec<Participant> =
        workload.participants.iter().map(|&node| script.participant(node)).collect();
    let config = NetConfig::default().with_link_latency(o0, o1, LatencyModel::Constant(ms(5)));
    let mut mesh = Mesh::new(config, &mut participants, |node| script.steps_for(node), IDLE);
    mesh.run();
    let o1_calls = mesh.calls_of(1);
    let commit = o1_calls.iter().position(|c| c.ends_with("handle commit from O2")).unwrap();
    assert_eq!(
        o1_calls[commit..],
        [
            "5302 O1 handle commit from O2",
            "5302 O1 note HandlerStarted",
            "5302 O1 handle local_handler_done",
            "5302 O1 send leave_ready to O0",
            "5302 O1 send leave_ready to O2",
            "5302 O1 handle leave_ready from O2",
            "10102 O1 handle nested_completed from O0",
            "10102 O1 note StaleMessage",
            "10102 O1 handle ack from O0",
            "10102 O1 note StaleMessage",
            "10302 O1 handle leave_ready from O0",
            "10302 O1 note Completed",
        ]
    );
    assert_eq!(mesh.late_deliveries(), []);

    // One participant: its raise commits at once, and the handler's
    // `After` is scheduled at the end of the wait, not at 0 µs.
    let (mut participants, a) = flat_action(1);
    let steps = |_| vec![(ms(0), Event::Enter(a)), (ms(0), Event::Raise(exc(1)))];
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, steps, IDLE);
    mesh.run();
    let calls = mesh.calls();
    assert_eq!(calls[..2], ["0 O0 handle local_enter", "0 O0 handle local_raise"]);
    assert_eq!(
        calls[calls.len() - 2..],
        ["10000 O0 handle local_handler_done", "20000 O0 note Completed"]
    );
}

/// A `Participant` of `action` for each of `n` nodes of a
/// [`caex::Scenario::for_port_host`] script: distributed leave.
fn port_host_participants(script: &mut caex::Script, n: u32) -> Vec<Participant> {
    (0..n).map(|i| script.participant(NodeId::new(i))).collect()
}

/// (h) A survivor at its exit line waits for the halted O2 far past its
/// idle timeout, and leaves when the detector reports O2 deserted: at
/// that turn, with nothing sent after its exit announcement.
#[test]
fn with_one_host_halted_and_deserted_the_survivors_leave_without_it() {
    let (registry, a) = flat_registry(3);
    let scenario = caex::Scenario::new(registry)
        .enter_all_at(SimTime::ZERO, a)
        .raise_at(SimTime::ZERO, NodeId::new(0), exc(1));
    let mut script = scenario.for_port_host();
    let mut participants = port_host_participants(&mut script, 3);
    // O2 acknowledges at 100 µs and halts at 150 µs, before O0's commit
    // reaches it; each survivor's report about O2 arrives at 50 ms.
    let mut config = NetConfig::default();
    for survivor in [NodeId::new(0), NodeId::new(1)] {
        config = config.with_link_latency(survivor, survivor, LatencyModel::Constant(ms(50)));
    }
    let mut mesh = Mesh::new(config, &mut participants, |node| script.steps_for(node), IDLE);
    mesh.crash(2, SimTime::from_micros(150));
    let o2 = NodeId::new(2);
    mesh.report(0, Event::DeserterSuspected { peer: o2 });
    mesh.report(1, Event::DeserterSuspected { peer: o2 });
    mesh.run();
    for node in [0, 1] {
        let calls = mesh.calls_of(node);
        let announced = calls.iter().rposition(|c| c.contains(" send leave_ready ")).unwrap();
        assert!(micros_of(&calls[announced]) < 1_000, "{calls:#?}");
        assert_eq!(
            calls[calls.len() - 3..],
            [
                format!("50000 O{node} handle local_deserter_suspected"),
                format!("50000 O{node} note Deserted"),
                format!("50000 O{node} note Completed"),
            ],
        );
        assert!(!calls[announced + 1..].iter().any(|c| c.contains(" send ")), "{calls:#?}");
    }
    let summaries = mesh.finish();
    assert_eq!(summaries[2].0, SimTime::from_micros(150), "O2 halted");
    for (left, summary) in &summaries[..2] {
        assert_eq!(*left, ms(50), "left at the report, not on the idle rule");
        assert_eq!(summary.deserted, 1);
        assert!(!summary.capped);
    }
    assert!(participants[..2].iter().all(Participant::is_through));
}

/// (i) A seed sweep over every `general(n, p, q)` with n ≤ 5: no node
/// handles a message for an action after it completed it, and none
/// arrives after a node's run ended.
#[test]
fn no_message_for_an_action_reaches_a_node_after_it_completed_it() {
    for n in 2..=5u32 {
        for p in 1..=n {
            for q in 0..=n - p {
                for seed in 0..8 {
                    let mut participants = Vec::new();
                    let mesh = general_mesh((n, p, q), seed, &mut participants);
                    let late = mesh.late_deliveries();
                    assert_eq!(late, [], "general({n},{p},{q}) seed {seed}");
                    for (left, summary) in mesh.finish() {
                        let at = format!("general({n},{p},{q}) seed {seed}, left at {left}");
                        assert_eq!(summary, DriveSummary::default(), "{at}");
                    }
                    assert!(participants.iter().all(Participant::is_through));
                }
            }
        }
    }
}

/// (j) As in `extensions.rs`'s `exception_during_distributed_leave_takes_over`:
/// O0 and O1 complete and announce their exit while O2 raises, and the
/// resolution takes over. O0's announcement from before the resolution
/// does not count toward the exit after it: O1 leaves only on O0's
/// second `LeaveReady`, sent when O0's 5 ms handler ends.
#[test]
fn a_leave_ready_from_before_the_resolution_does_not_count_after_it() {
    let (registry, a) = flat_registry(3);
    let mut slow = HandlerTable::recover_all(Arc::new(chain_tree(2)));
    slow.on_outcome(ExceptionId::new(1), ms(5), HandlerOutcome::Recovered);
    let o = NodeId::new;
    let scenario = caex::Scenario::new(registry)
        .enter_all_at(SimTime::ZERO, a)
        .complete_at(SimTime::ZERO, o(0), a)
        .complete_at(SimTime::ZERO, o(1), a)
        .raise_at(SimTime::ZERO, o(2), exc(1))
        .handlers(o(0), a, slow);
    let mut script = scenario.for_port_host();
    let mut participants = port_host_participants(&mut script, 3);
    let steps = |node| script.steps_for(node);
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, steps, IDLE);
    mesh.run();
    let o1 = mesh.calls_of(1);
    let from_o0: Vec<&String> =
        o1.iter().filter(|c| c.ends_with("handle leave_ready from O0")).collect();
    assert_eq!(from_o0.len(), 2, "one before the resolution, one after: {o1:#?}");
    let completed = o1.iter().find(|c| c.ends_with(" note Completed")).unwrap();
    assert!(micros_of(from_o0[1]) >= 5_000, "{o1:#?}");
    assert_eq!(micros_of(completed), micros_of(from_o0[1]), "{o1:#?}");
    let handled = mesh
        .log
        .notes
        .borrow()
        .iter()
        .filter(|n| matches!(n, Note::HandlerStarted { .. }))
        .count();
    assert_eq!(handled, 3, "the resolution took over at every object");
    assert_eq!(mesh.net.stats().sent_of_kind("leave_ready"), 4 + 6);
    assert_eq!(mesh.late_deliveries(), []);
    assert!(mesh.finish().iter().all(|(_, s)| *s == DriveSummary::default()));
}
