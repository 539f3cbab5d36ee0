//! The order of a [`PortHost`] turn, pinned under virtual time.
//!
//! [`Mesh`] is a test double of `caex::drive::drive_node`'s blocking
//! shell: it feeds N hosts from one `SimNet<Event>` instead of N
//! ports and a wall clock. A message is a net delivery; the end of a
//! host's wait is a local event scheduled at the instant
//! [`PortHost::begin_turn`] returned; a crash is
//! [`PortHost::halt_at`]. Every `handle`, `send` and `note` call goes
//! to one log, stamped with the virtual microsecond it happened at, so
//! each test asserts an exact call sequence.
//!
//! Two of these tests pin the order ROADMAP item 1b changes, and are
//! the ones it flips: [`a_message_is_handled_before_a_step_that_fell_due_during_the_wait`]
//! and [`a_due_steps_sends_leave_only_after_the_wait_that_follows_it`].

use caex::drive::{DriveSummary, PortHost};
use caex::{workloads, Effect, Event, Msg, NestedStrategy, Note, Participant};
use caex_action::{ActionId, ActionRegistry, ActionScope};
use caex_net::{DeliverySource, Kinded, LatencyModel, NetConfig, NodeId, SimNet, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId};
use std::cell::{Cell, RefCell};
use std::rc::Rc;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every hook call of a run, as `"<micros> <node> <what>"`, and every
/// note in full.
#[derive(Default)]
struct Log {
    now: Cell<u64>,
    calls: RefCell<Vec<String>>,
    notes: RefCell<Vec<Note>>,
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
    /// Detector reports waiting for each node's next poll:
    /// suspected, rejoined, crashed.
    reports: Vec<[Vec<NodeId>; 3]>,
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
                    let from = from.map_or(String::new(), |f| format!(" from {f}"));
                    on_handle.push(node, format!("handle {}{from}", event.kind()));
                    p.handle(event)
                });
                let note = Box::new(move |note: Note| {
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
            reports: (0..n).map(|_| Default::default()).collect(),
            undelivered: vec![0; n],
            log,
        }
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
        match host.begin_turn(instant(self.epoch, t)) {
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
            let [suspected, rejoined, crashed] = std::mem::take(&mut self.reports[i]);
            let (net, log) = (&mut self.net, &self.log);
            let now = instant(self.epoch, t);
            let live = host.end_turn(now, received, suspected, rejoined, crashed, |dest, event| {
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
}

const IDLE: Duration = Duration::from_millis(25);

fn ms(millis: u64) -> SimTime {
    SimTime::from_millis(millis)
}

fn exc(id: u32) -> Exception {
    Exception::new(ExceptionId::new(id))
}

/// `n` participants of one top-level action over a two-exception chain.
fn flat_action(n: u32) -> (Vec<Participant>, ActionId) {
    let mut registry = ActionRegistry::new();
    let action = registry
        .declare(ActionScope::top_level("A", (0..n).map(NodeId::new), Arc::new(chain_tree(2))))
        .unwrap();
    let registry = Arc::new(registry);
    let participants = (0..n)
        .map(|i| Participant::new(NodeId::new(i), Arc::clone(&registry), NestedStrategy::Abort))
        .collect();
    (participants, action)
}

/// (a) **ROADMAP 1b flips this test.** An `Exception` from O0 reaches
/// O1 at 5 000 µs, the very instant O1's own raise falls due. Today the
/// wait hands the message over and it is handled *before* the step
/// that fell due during that wait; the step fires on the next turn.
/// 1b's "fire due steps again before handling a received message"
/// puts `local_raise` first.
#[test]
fn a_message_is_handled_before_a_step_that_fell_due_during_the_wait() {
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
        mesh.handles_of(1)[..3],
        [
            "0 O1 handle local_enter",
            "5000 O1 handle exception from O0",
            "5000 O1 handle local_raise",
        ]
    );
}

/// (b) **ROADMAP 1b flips this test.** With no traffic, the `Send`s of
/// a step handled at 0 µs leave only after the wait that follows it —
/// the full 10 ms here, the benchmark's `drive.step_lag`. 1b's
/// "dispatch due-step effects before the wait" puts them at 0 µs.
#[test]
fn a_due_steps_sends_leave_only_after_the_wait_that_follows_it() {
    let (mut participants, a) = flat_action(2);
    let steps = |node: NodeId| match node.index() {
        0 => vec![(ms(0), Event::Enter(a)), (ms(0), Event::Raise(exc(1)))],
        _ => vec![(ms(0), Event::Enter(a))],
    };
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, steps, IDLE);
    mesh.run();
    assert_eq!(
        mesh.calls_of(0)[..6],
        [
            "0 O0 handle local_enter",
            "0 O0 handle local_raise",
            "10000 O0 note Entered",
            "10000 O0 note Raised",
            "10000 O0 note Multicast",
            "10000 O0 send exception to O1",
        ]
    );
}

/// (c) A peer that flapped and died within one poll is reported in
/// causal order — suspected, rejoined, crashed — after the message
/// that ended the wait, and counted as one deserter; the notes follow
/// once everything of the turn has been handled.
#[test]
fn detector_reports_are_handled_suspected_then_rejoined_then_crashed() {
    let (mut participants, a) = flat_action(2);
    let mut mesh = Mesh::new(NetConfig::default(), &mut participants, |_| Vec::new(), IDLE);
    // O1's detector has all three reports about O0 ready at its first
    // poll, which O0's last message (buffered: O1 has not entered the
    // action) brings forward to 100 µs.
    let (o0, o1) = (NodeId::new(0), NodeId::new(1));
    mesh.reports[1] = [vec![o0], vec![o0], vec![o0]];
    mesh.net.send(o0, o1, Event::Msg(Msg::Ack { from: o0, action: a }));
    mesh.run();
    assert_eq!(
        mesh.calls_of(1),
        [
            "100 O1 handle ack from O0",
            "100 O1 handle local_peer_suspected",
            "100 O1 handle local_peer_rejoined",
            "100 O1 handle local_deserter_suspected",
            "100 O1 note PeerSuspected",
            "100 O1 note PeerRejoined",
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

/// One `general(3, 2, 1)` run over three hosts, jittered by `seed`.
fn general_run(seed: u64) -> Vec<String> {
    let config = NetConfig::default().with_seed(seed).with_latency(LatencyModel::Uniform {
        min: SimTime::from_micros(50),
        max: SimTime::from_micros(400),
    });
    let workload = workloads::general(3, 2, 1, NetConfig::default());
    let top = workload.action;
    let mut script = workload.scenario.for_port_host();
    let mut participants: Vec<Participant> =
        workload.participants.iter().map(|&node| script.participant(node)).collect();
    let mut mesh = Mesh::new(config, &mut participants, |node| script.steps_for(node), IDLE);
    mesh.run();
    let calls = mesh.calls();
    let sends = calls.iter().filter(|c| c.contains(" send ")).count();
    assert_eq!(sends, 16, "§4.4: (N−1)(2P+3Q+1) = 16 messages");
    assert_eq!(mesh.net.stats().sent_total(), 16);
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
    assert!(mesh.finish().iter().all(|(_, s)| *s == DriveSummary::default()));
    assert!(participants.iter().all(Participant::is_normal));
    calls
}

/// (f) The §4.4 general workload over three hosts: agreement on the
/// resolved exception, exactly 16 messages, and a replayable run.
#[test]
fn general_3_2_1_agrees_in_16_messages_and_replays() {
    let first = general_run(7);
    assert_eq!(first, general_run(7), "same seed, same call sequence");
    assert_ne!(first, general_run(8), "the seed reaches the net");
}
