//! The mesh workloads: closed-loop resolution rounds on real threads
//! and real timers, one persistent transport (in-process `ThreadNet`
//! or a loopback-TCP `caex-wire` mesh) and one `caex::drive::drive_node`
//! thread per participant.
//!
//! Three hazards are designed out:
//!
//! - a round ends through [`StopPort`], which reports `Disconnected`
//!   once the round's stop flag is set — never through `drive_node`'s
//!   idle timeout, which would add its whole length to every round;
//! - every round declares action ids of its own and runs on fresh
//!   `Participant`s, so the late messages of a stalled round cannot be
//!   taken for a later round's;
//! - a round's steps are handed to `drive_node` only when the round
//!   starts: a pre-queued later step would shorten the drive loop's
//!   wait and mask the lag being measured.

use crate::checks::{check, Observed, Tally};
use crate::inputs::{Inputs, Kind, Workload};
use crate::report::Measured;
use crate::stats::{median, percentile, quiet_half};
use crate::trace::{LayerTotals, Off, Span, SpanLog, Tracer, NO_PARENT};
use crate::{fleet, ladder, sys, RunOpts};
use caex::drive::drive_node;
use caex::{Event, Msg, NestedStrategy, Note, Participant};
use caex_action::ActionRegistry;
use caex_net::{FifoPort, NodeId, RecvTimeoutError, SimTime, ThreadNet};
use caex_tree::ExceptionId;
use caex_wire::{WireAddr, WireBound, WireConfig, WirePort};
use std::cell::RefCell;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::mpsc::{self, Receiver, Sender};
use std::sync::Arc;
use std::thread::{self, JoinHandle};
use std::time::{Duration, Instant};

/// A [`FifoPort`] that ends a drive loop on request: once `stop` is
/// set, `recv_timeout` reports `Disconnected` — `drive_node`'s one
/// prompt exit — whatever is still queued. Everything else goes
/// straight to the wrapped port.
#[derive(Debug)]
pub struct StopPort<'a, P> {
    inner: &'a P,
    stop: &'a AtomicBool,
}

impl<'a, P> StopPort<'a, P> {
    /// Wraps `inner`; the loop driving it ends once `stop` is set.
    #[must_use]
    pub fn new(inner: &'a P, stop: &'a AtomicBool) -> Self {
        StopPort { inner, stop }
    }
}

impl<M, P: FifoPort<M>> FifoPort<M> for StopPort<'_, P> {
    fn id(&self) -> NodeId {
        self.inner.id()
    }
    fn num_nodes(&self) -> u32 {
        self.inner.num_nodes()
    }
    fn send(&self, to: NodeId, payload: M) -> bool {
        self.inner.send(to, payload)
    }
    fn recv_timeout(&self, timeout: Duration) -> Result<(NodeId, M), RecvTimeoutError> {
        // SeqCst: the flag orders the coordinator's "round over"
        // decision before everything the node thread does next.
        if self.stop.load(Ordering::SeqCst) {
            return Err(RecvTimeoutError::Disconnected);
        }
        self.inner.recv_timeout(timeout)
    }
    fn take_crashed(&self) -> Vec<NodeId> {
        self.inner.take_crashed()
    }
    fn take_suspected(&self) -> Vec<NodeId> {
        self.inner.take_suspected()
    }
    fn take_rejoined(&self) -> Vec<NodeId> {
        self.inner.take_rejoined()
    }
    fn drain_undelivered(&self) -> usize {
        self.inner.drain_undelivered()
    }
}

/// Nested entry offset from the round's start instant.
fn nested_at() -> SimTime {
    SimTime::from_micros(100)
}
/// Raise offset from the round's start instant.
fn raise_at() -> SimTime {
    SimTime::from_millis(1)
}
/// The start instant lies this far ahead of plan distribution, so
/// every node thread is inside `drive_node` before its first step.
const LEAD: Duration = Duration::from_micros(300);
/// A round not complete this long after its raise fell due has failed.
const ROUND_CAP: Duration = Duration::from_millis(500);
/// `drive_node`'s idle timeout: far beyond the cap, so it never fires.
const NEVER_IDLE: Duration = Duration::from_secs(30);
/// Action-id range of warm-up rounds, clear of measured rounds.
const WARMUP_ROUND_BASE: u32 = 1 << 24;

/// What a node thread is told at the start of a round.
struct RoundPlan {
    round: u32,
    registry: Arc<ActionRegistry>,
    steps: Vec<(SimTime, Event)>,
    start: Instant,
    stop: Arc<AtomicBool>,
    traced: bool,
}

/// What a node thread tells the coordinator.
enum NodeMsg {
    Raised(Instant, ExceptionId),
    Committed(Instant, ExceptionId),
    HandlerStarted(Instant, ExceptionId),
    Completed,
    /// A raise or abortion report reached the node after the commit
    /// and was cleaned up (§3.3 problem 4) instead of acknowledged.
    AckWaived,
    /// The node left the round's drive loop (spans of a traced round).
    Exited(Option<SpanLog>),
}

/// One node's life: wait for a round, drive it, report, repeat.
fn node_main<P: FifoPort<Event>>(
    port: &P,
    epoch: Instant,
    plans: &Receiver<RoundPlan>,
    out: &Sender<NodeMsg>,
) {
    while let Ok(plan) = plans.recv() {
        let spans = if plan.traced {
            let log = RefCell::new(SpanLog::new(epoch));
            drive_round(port, &plan, out, &log);
            Some(log.into_inner())
        } else {
            drive_round(port, &plan, out, &RefCell::new(Off));
            None
        };
        // A closed channel means the coordinator is gone; so are we.
        if out.send(NodeMsg::Exited(spans)).is_err() {
            return;
        }
    }
}

fn drive_round<P: FifoPort<Event>, T: Tracer>(
    port: &P,
    plan: &RoundPlan,
    out: &Sender<NodeMsg>,
    tr: &RefCell<T>,
) {
    let op = u64::from(plan.round);
    let top = caex_action::ActionId::new(plan.registry.base());
    let s = tr.borrow_mut().begin("participant.new", op);
    let mut participant =
        Participant::new(port.id(), Arc::clone(&plan.registry), NestedStrategy::Abort);
    tr.borrow_mut().end(s);
    drive_node(
        &StopPort::new(port, &plan.stop),
        &mut participant,
        plan.steps.clone(),
        plan.start,
        NEVER_IDLE,
        |p, event, _from| {
            let s = tr.borrow_mut().begin(fleet::handle_span(&event), op);
            let effects = p.handle(event);
            tr.borrow_mut().end(s);
            effects
        },
        |note| {
            let at = Instant::now();
            let msg = match note {
                Note::Raised { exc, .. } => NodeMsg::Raised(at, exc.id()),
                Note::ResolutionCommitted {
                    action, resolved, ..
                } if action == top => NodeMsg::Committed(at, resolved.id()),
                Note::HandlerStarted { action, exc, .. } if action == top => {
                    NodeMsg::HandlerStarted(at, exc.id())
                }
                Note::Completed { action, .. } if action == top => NodeMsg::Completed,
                Note::StaleMessage {
                    msg: Msg::Exception { .. } | Msg::NestedCompleted { .. },
                    ..
                } => NodeMsg::AckWaived,
                _ => return,
            };
            let _ = out.send(msg);
        },
    );
}

/// A running mesh: the node threads, their plan channels and the
/// shared note channel.
pub struct Mesh {
    plans: Vec<Sender<RoundPlan>>,
    notes: Receiver<NodeMsg>,
    threads: Vec<JoinHandle<()>>,
    sent_total: Box<dyn Fn() -> u64>,
    epoch: Instant,
}

fn tcp_any() -> WireAddr {
    "tcp://127.0.0.1:0"
        .parse()
        .expect("loopback wildcard parses")
}

/// Forms an `n`-node wire mesh in this process: every listener bound
/// before any dial, so formation has no port race.
fn wire_ports(addr_of: impl Fn(u32) -> WireAddr, n: u32) -> Vec<WirePort> {
    let bounds: Vec<WireBound> = (0..n)
        .map(|i| {
            WireBound::bind(NodeId::new(i), &addr_of(i), WireConfig::default())
                .expect("bind mesh listener")
        })
        .collect();
    let addrs: Vec<WireAddr> = bounds.iter().map(|b| b.local_addr().clone()).collect();
    bounds
        .into_iter()
        .map(|b| b.connect(&addrs).expect("form mesh"))
        .collect()
}

/// Plan channels, thread handles and the readiness channel of a set
/// of node threads.
type Nodes = (Vec<Sender<RoundPlan>>, Vec<JoinHandle<()>>, Receiver<()>);

/// Spawns one node thread per port; each runs `before_ready` (the
/// wire mesh's start barrier), reports ready, then serves rounds.
fn spawn_nodes<P: FifoPort<Event> + Send + 'static>(
    ports: Vec<P>,
    epoch: Instant,
    note_tx: &Sender<NodeMsg>,
    before_ready: impl Fn(&P) + Send + Copy + 'static,
) -> Nodes {
    let (ready_tx, ready) = mpsc::channel();
    let (plans, threads) = ports
        .into_iter()
        .map(|port| {
            let (plan_tx, plan_rx) = mpsc::channel();
            let (note_tx, ready_tx) = (note_tx.clone(), ready_tx.clone());
            let thread = thread::spawn(move || {
                before_ready(&port);
                let _ = ready_tx.send(());
                node_main(&port, epoch, &plan_rx, &note_tx);
            });
            (plan_tx, thread)
        })
        .unzip();
    (plans, threads, ready)
}

impl Mesh {
    /// Starts the workload's transport and its node threads; returns
    /// once every node is ready for its first round (for the wire
    /// mesh: bound, connected and through the start barrier).
    #[must_use]
    pub fn start(w: &Workload) -> Mesh {
        let epoch = Instant::now();
        let (note_tx, notes) = mpsc::channel();
        let (nodes, sent_total): (Nodes, Box<dyn Fn() -> u64>) = match w.kind {
            Kind::MeshThreads => {
                let net: ThreadNet<Event> = ThreadNet::new(w.n);
                let stats = net.stats();
                (
                    spawn_nodes(net.into_ports(), epoch, &note_tx, |_| {}),
                    Box::new(move || stats.lock().sent_total()),
                )
            }
            Kind::MeshWire => {
                let ports = wire_ports(|_| tcp_any(), w.n);
                let stats: Vec<_> = ports.iter().map(WirePort::stats).collect();
                (
                    spawn_nodes(ports, epoch, &note_tx, |port| {
                        port.barrier(Duration::from_secs(10))
                            .expect("mesh start barrier");
                    }),
                    Box::new(move || stats.iter().map(|s| s.lock().sent_total()).sum()),
                )
            }
            Kind::Fleet => panic!("{} is not a mesh workload", w.name),
        };
        let (plans, threads, ready) = nodes;
        for _ in 0..w.n {
            ready
                .recv_timeout(Duration::from_secs(20))
                .expect("every node thread becomes ready");
        }
        Mesh {
            plans,
            notes,
            threads,
            sent_total,
            epoch,
        }
    }

    /// Stops the node threads and waits for them; dropping a wire
    /// port says goodbye to its peers and joins its writers.
    pub fn stop(self) {
        drop(self.plans);
        for t in self.threads {
            t.join().expect("node thread ended cleanly");
        }
    }
}

/// Wall-clock marks of one completed round, relative to nothing: the
/// phases are differences of these.
#[derive(Debug, Clone, Copy)]
pub struct RoundTimes {
    /// When the raises fell due.
    pub due: Instant,
    /// First `Note::Raised` delivered to a note callback.
    pub first_raised: Instant,
    /// `Note::ResolutionCommitted` delivered at the resolver.
    pub committed: Instant,
    /// Last participant's `Note::HandlerStarted`.
    pub last_handler: Instant,
}

impl RoundTimes {
    fn us(from: Instant, to: Instant) -> f64 {
        to.saturating_duration_since(from).as_secs_f64() * 1e6
    }
    /// Raise due → effects leaving the drive loop.
    #[must_use]
    pub fn step_lag_us(&self) -> f64 {
        Self::us(self.due, self.first_raised)
    }
    /// First raise → the resolver commits.
    #[must_use]
    pub fn agree_us(&self) -> f64 {
        Self::us(self.first_raised, self.committed)
    }
    /// Commit → the last handler starts.
    #[must_use]
    pub fn commit_us(&self) -> f64 {
        Self::us(self.committed, self.last_handler)
    }
    /// Raise due → the last handler starts; the three phases add up
    /// to this exactly.
    #[must_use]
    pub fn resolve_us(&self) -> f64 {
        Self::us(self.due, self.last_handler)
    }
}

/// What one round did.
pub struct RoundResult {
    /// What the checks see.
    pub seen: Observed,
    /// The exceptions actually raised (`Note::Raised`), which on real
    /// threads can be fewer than planned: a raiser that a stalled host
    /// wakes after another raiser's `Exception` message has arrived is
    /// already suspended, and its own raise is suppressed (§4.1).
    pub raised: Vec<ExceptionId>,
    /// The phase marks, when every one of them was observed.
    pub times: Option<RoundTimes>,
    /// Protocol messages actually sent (`seen.messages` also counts
    /// acknowledgements waived by the late-message clean-up).
    pub sent: u64,
    /// The round's spans (traced rounds).
    pub log: Option<SpanLog>,
}

impl RoundResult {
    /// Checks the round against the oracle and the law **for the set
    /// actually raised**; a round in which nothing was raised cannot
    /// have completed.
    ///
    /// # Errors
    ///
    /// The first [`crate::checks::Failure`] found.
    pub fn check(&self, inputs: &Inputs) -> Result<(), crate::checks::Failure> {
        if self.raised.is_empty() {
            return Err(crate::checks::Failure::Incomplete);
        }
        check(&inputs.expected(&self.raised), &self.seen)
    }
}

impl Mesh {
    /// Runs round `round` to completion (or the cap) and returns what
    /// was seen. One client, closed loop: the caller starts the next
    /// round only after this returns.
    pub fn run_round(&self, inputs: &Inputs, seed: u64, round: u32, traced: bool) -> RoundResult {
        let n = inputs.w.n as usize;
        let plan = inputs.mesh_round(seed, round);
        let (registry, steps, _) = inputs
            .scenario(&plan, nested_at(), raise_at())
            .into_script();
        let mut per_node: Vec<Vec<(SimTime, Event)>> = vec![Vec::new(); n];
        for (at, node, event) in steps {
            per_node[node.index() as usize].push((at, event));
        }
        let sent_before = (self.sent_total)();
        let stop = Arc::new(AtomicBool::new(false));
        let start = Instant::now() + LEAD;
        for (tx, steps) in self.plans.iter().zip(per_node) {
            tx.send(RoundPlan {
                round,
                registry: Arc::clone(&registry),
                steps,
                start,
                stop: Arc::clone(&stop),
                traced,
            })
            .expect("node thread is alive");
        }

        let due = start + Duration::from_micros(raise_at().as_micros());
        let deadline = due + ROUND_CAP;
        let (mut first_raised, mut committed, mut last_handler) = (None, None, None);
        let mut seen = Observed {
            handled: Some(Vec::with_capacity(n)),
            ..Observed::default()
        };
        let (mut completed, mut exited, mut waived) = (0, 0, 0u64);
        let mut raised = Vec::new();
        let mut log = traced.then(|| SpanLog::new(self.epoch));
        let mut node_logs = Vec::new();
        let mut stopped_at = None;
        while exited < n {
            let wait = if stopped_at.is_some() {
                // Nodes notice the flag within one drive-loop wait.
                Duration::from_secs(5)
            } else {
                deadline.saturating_duration_since(Instant::now())
            };
            match self.notes.recv_timeout(wait) {
                Ok(NodeMsg::Raised(at, id)) => {
                    first_raised.get_or_insert(at);
                    raised.push(id);
                }
                Ok(NodeMsg::Committed(at, id)) => {
                    if committed.is_none() {
                        committed = Some(at);
                        seen.resolved = Some(id);
                    }
                }
                Ok(NodeMsg::HandlerStarted(at, id)) => {
                    last_handler = Some(at);
                    seen.handled.as_mut().expect("mesh sees handlers").push(id);
                }
                Ok(NodeMsg::Completed) => completed += 1,
                Ok(NodeMsg::AckWaived) => waived += 1,
                Ok(NodeMsg::Exited(spans)) => {
                    exited += 1;
                    node_logs.extend(spans);
                }
                Err(mpsc::RecvTimeoutError::Timeout) if stopped_at.is_none() => {}
                Err(e) => panic!("node threads stopped reporting: {e}"),
            }
            if stopped_at.is_none() && (completed == n || Instant::now() >= deadline) {
                seen.completed = completed == n;
                stop.store(true, Ordering::SeqCst);
                stopped_at = Some(Instant::now());
            }
        }
        // On real threads a raise can reach a participant after the
        // commit; it is then cleaned up, not acknowledged, and the law
        // (which assumes every raise lands before the commit) counts
        // the acknowledgement it would have drawn.
        let sent = (self.sent_total)() - sent_before;
        seen.messages = sent + waived;

        let times = match (seen.completed, first_raised, committed, last_handler) {
            (true, Some(first_raised), Some(committed), Some(last_handler)) => Some(RoundTimes {
                due,
                first_raised,
                committed,
                last_handler,
            }),
            _ => None,
        };
        if let Some(log) = log.as_mut() {
            let op = u64::from(round);
            let stopped = stopped_at.expect("the loop ends only after the stop");
            let root = log.push(Span {
                name: "mesh.round",
                start_ns: log.ns_at(start),
                end_ns: log.ns_at(stopped),
                parent: NO_PARENT,
                op,
            });
            if let Some(t) = times {
                for (name, from, to) in [
                    ("drive.step_lag", t.due, t.first_raised),
                    ("mesh.agree", t.first_raised, t.committed),
                    ("mesh.commit", t.committed, t.last_handler),
                ] {
                    log.push(Span {
                        name,
                        start_ns: log.ns_at(from),
                        end_ns: log.ns_at(to),
                        parent: root,
                        op,
                    });
                }
            }
            for node_log in node_logs {
                log.absorb(node_log, root);
            }
        }
        RoundResult {
            seen,
            raised,
            times,
            sent,
            log,
        }
    }
}

/// Starts the mesh and runs the discarded warm-up rounds: one set-up.
fn set_up(inputs: &Inputs, opts: &RunOpts) -> Mesh {
    let mesh = Mesh::start(inputs.w);
    let warmups = if opts.smoke { 2 } else { 20 };
    for i in 0..warmups {
        let _ = mesh.run_round(inputs, opts.seed, WARMUP_ROUND_BASE + i, false);
    }
    mesh
}

impl Mesh {
    /// Runs rounds `first..` until `seconds` have passed (at least
    /// five), checking each into `tally` before handing it to `each`.
    /// Returns the next unused round number and the time taken.
    fn run_rounds(
        &self,
        inputs: &Inputs,
        (seed, traced): (u64, bool),
        first: u32,
        seconds: f64,
        tally: &mut Tally,
        mut each: impl FnMut(RoundResult),
    ) -> (u32, f64) {
        let window = Instant::now();
        let mut round = first;
        while round - first < 5 || window.elapsed().as_secs_f64() < seconds {
            let result = self.run_round(inputs, seed, round, traced);
            tally.record(inputs.w.name, u64::from(round), result.check(inputs));
            each(result);
            round += 1;
        }
        (round, window.elapsed().as_secs_f64())
    }
}

/// The untraced run: the end-to-end metrics.
#[must_use]
pub fn run_untraced(w: &'static Workload, opts: &RunOpts) -> (Tally, Measured) {
    let inputs = Inputs::new(w);
    let mut setups = Vec::new();
    let mut mesh: Option<Mesh> = None;
    for _ in 0..opts.setups() {
        if let Some(previous) = mesh.take() {
            previous.stop();
        }
        let t = Instant::now();
        mesh = Some(set_up(&inputs, opts));
        setups.push(t.elapsed().as_secs_f64());
    }
    let mesh = mesh.expect("at least one set-up");

    let mut tally = Tally::default();
    let mut resolve = Vec::new();
    let mut sent = 0u64;
    let mut cpu_ms = Vec::new();
    let mut cpu_before = sys::cpu_seconds();
    let (_, elapsed) = mesh.run_rounds(
        &inputs,
        (opts.seed, false),
        0,
        opts.seconds,
        &mut tally,
        |r| {
            sent += r.sent;
            resolve.extend(r.times.map(|t| t.resolve_us()));
            let now = sys::cpu_seconds();
            cpu_ms.push((now - cpu_before) * 1e3);
            cpu_before = now;
        },
    );
    mesh.stop();
    assert!(!resolve.is_empty(), "no round of {} completed", w.name);

    let mut m = Measured::default();
    let rounds = tally.attempted;
    m.set("actions_per_s", rounds as f64 / elapsed, rounds);
    m.set("resolve_p50_us", median(&resolve), resolve.len() as u64);
    m.set(
        "resolve_p90_us",
        percentile(&resolve, 0.9),
        resolve.len() as u64,
    );
    m.set("msgs_per_action", sent as f64 / rounds as f64, rounds);
    let quiet_cpu = quiet_half(&cpu_ms, false);
    m.set(
        "cpu_ms_per_action",
        median(&quiet_cpu),
        quiet_cpu.len() as u64,
    );
    m.set("peak_rss_mb", sys::peak_rss_mb(), 1);
    m.set("setup_s", median(&setups), setups.len() as u64);
    (tally, m)
}

/// A small `Ack`, the ping-pong payload of the hop measurements.
fn ping(from: NodeId) -> Event {
    Event::Msg(Msg::Ack {
        from,
        action: caex_action::ActionId::new(0),
    })
}

/// Median one-way hop over a connected port pair: `b` echoes, `a`
/// times ping-pongs and halves the round trip.
fn hop_us<P: FifoPort<Event> + Send>(mut ports: Vec<P>, budget: Duration) -> (f64, u64) {
    let (b, a) = (
        ports.pop().expect("two ports"),
        ports.pop().expect("two ports"),
    );
    let b_id = b.id();
    let done = &AtomicBool::new(false);
    thread::scope(|scope| {
        scope.spawn(move || {
            while !done.load(Ordering::SeqCst) {
                if let Ok((from, event)) = b.recv_timeout(Duration::from_millis(20)) {
                    b.send(from, event);
                }
            }
        });
        let (ns, samples) = ladder::time_ns(budget, 2, || {
            a.send(b_id, ping(a.id()));
            a.recv_timeout(Duration::from_secs(5))
                .expect("echo returns");
        });
        done.store(true, Ordering::SeqCst);
        (ns / 1e3, samples)
    })
}

/// `threadnet.hop_us`, `wire.hop_us.*` and `wire.mesh_setup_ms`.
fn transport_rungs(w: &Workload, opts: &RunOpts, m: &mut Measured) {
    let budget = opts.rung_budget();
    let (us, n) = hop_us(ThreadNet::<Event>::new(2).into_ports(), budget);
    m.set("threadnet.hop_us", us, n);

    let (us, n) = hop_us(wire_ports(|_| tcp_any(), 2), budget);
    m.set("wire.hop_us.tcp", us, n);

    // Unix-domain sockets live under the output directory: the
    // benchmark writes nowhere outside its checkout.
    let dir = opts.out_dir.join(format!("sock-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create socket directory");
    let (us, n) = hop_us(
        wire_ports(|i| WireAddr::Unix(dir.join(format!("{i}.sock"))), 2),
        budget,
    );
    m.set("wire.hop_us.unix", us, n);
    let _ = std::fs::remove_dir_all(&dir);

    let wire = crate::inputs::workload("mesh_wire").expect("mesh_wire exists");
    debug_assert_eq!(wire.n, w.n);
    let mut forms = Vec::new();
    for _ in 0..opts.setups() {
        let t = Instant::now();
        let mesh = Mesh::start(wire);
        forms.push(t.elapsed().as_secs_f64() * 1e3);
        mesh.stop();
    }
    m.set("wire.mesh_setup_ms", median(&forms), forms.len() as u64);
}

/// The traced run: the per-layer metrics, the phase ladder and the
/// trace file.
#[must_use]
pub fn run_traced(w: &'static Workload, opts: &RunOpts) -> (Tally, Measured) {
    let inputs = Inputs::new(w);
    let mesh = set_up(&inputs, opts);
    let mut tally = Tally::default();

    // Untraced rounds first, in this same process and mesh: the
    // baseline the traced rounds' overhead is measured against.
    let mut plain = Vec::new();
    let (next, _) = mesh.run_rounds(
        &inputs,
        (opts.seed, false),
        0,
        opts.seconds / 8.0,
        &mut tally,
        |r| {
            plain.extend(r.times.map(|t| t.resolve_us()));
        },
    );

    let mut totals = LayerTotals::calibrated();
    let mut sample = SpanLog::new(mesh.epoch);
    let mut times = Vec::new();
    let (last, elapsed) = mesh.run_rounds(
        &inputs,
        (opts.seed, true),
        next,
        opts.seconds / 4.0,
        &mut tally,
        |r| {
            times.extend(r.times);
            let log = r.log.expect("traced rounds carry spans");
            totals.add(&log);
            if sample.spans().len() < crate::trace::SPANS_WRITTEN_MAX {
                sample.absorb(log, NO_PARENT);
            }
        },
    );
    mesh.stop();
    let traced_rounds = u64::from(last - next);
    assert!(
        !times.is_empty() && !plain.is_empty(),
        "no round of {} completed",
        w.name
    );

    let column = |f: fn(&RoundTimes) -> f64| times.iter().map(f).collect::<Vec<f64>>();
    let resolve = column(RoundTimes::resolve_us);
    let n = times.len() as u64;
    let mut m = Measured::default();
    m.set(
        "drive.step_lag_p50_us",
        median(&column(RoundTimes::step_lag_us)),
        n,
    );
    m.set(
        "mesh.agree_p50_us",
        median(&column(RoundTimes::agree_us)),
        n,
    );
    m.set(
        "mesh.commit_p50_us",
        median(&column(RoundTimes::commit_us)),
        n,
    );
    m.set("mesh.resolve_p50_us", median(&resolve), n);
    let phases: f64 = [
        "drive.step_lag_p50_us",
        "mesh.agree_p50_us",
        "mesh.commit_p50_us",
    ]
    .iter()
    .filter_map(|name| m.get(name))
    .sum();
    eprintln!(
        "phases: step lag + agree + commit medians = {phases:.1} us against resolve p50 {:.1} us \
         ({:+.2} %)",
        median(&resolve),
        (phases / median(&resolve) - 1.0) * 100.0
    );
    m.set("mesh.resolve_p99_us", percentile(&resolve, 0.99), n);
    m.set("mesh.resolve_max_us", percentile(&resolve, 1.0), n);
    m.set(
        "mesh.rounds_per_s",
        traced_rounds as f64 / elapsed,
        traced_rounds,
    );
    m.set(
        "trace.overhead_share",
        median(&resolve) / median(&plain) - 1.0,
        n,
    );
    m.set("failed_share", tally.failed_share(), tally.attempted);

    let mut handles = 0;
    for (span, metric) in fleet::HANDLES {
        handles += totals.get(span).count;
        m.set(metric, totals.mean_ns(span), totals.get(span).count);
    }
    m.set(
        "participant.handles_per_action",
        handles as f64 / traced_rounds as f64,
        handles,
    );
    m.set(
        "participant.new_ns",
        totals.mean_ns("participant.new"),
        totals.get("participant.new").count,
    );

    let budget = opts.rung_budget();
    transport_rungs(w, opts, &mut m);
    let mix = fleet::message_mix(&inputs, inputs.mesh_round(opts.seed, 0), opts.seed);
    ladder::tree_resolve(&inputs, opts.seed, budget, &mut m);
    ladder::codec_and_frame(&mix, budget, &mut m);
    ladder::obs_emit(&inputs, opts.seed, 50, budget, &mut m);

    opts.write_trace(
        w.name,
        &crate::trace::trace_json(w.name, opts.seed, &totals, &sample),
    );
    (tally, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::workload;

    #[test]
    fn stop_port_passes_traffic_until_stopped_then_disconnects() {
        let ports = ThreadNet::<&'static str>::new(2).into_ports();
        let stop = AtomicBool::new(false);
        let b = StopPort::new(&ports[1], &stop);
        assert_eq!(FifoPort::<&str>::id(&b), NodeId::new(1));
        assert_eq!(FifoPort::<&str>::num_nodes(&b), 2);

        assert!(ports[0].send(NodeId::new(1), "one"));
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Ok((NodeId::new(0), "one"))
        );
        assert_eq!(
            b.recv_timeout(Duration::from_millis(1)),
            Err(RecvTimeoutError::Timeout)
        );
        assert!(b.send(NodeId::new(0), "back"), "sends go straight through");
        assert_eq!(
            ports[0].recv_timeout(Duration::from_secs(1)),
            Ok((NodeId::new(1), "back"))
        );

        // Once stopped, even a queued message is not delivered: the
        // drive loop must end now, and drains the rest as undelivered.
        assert!(ports[0].send(NodeId::new(1), "late"));
        stop.store(true, Ordering::SeqCst);
        assert_eq!(
            b.recv_timeout(Duration::from_secs(1)),
            Err(RecvTimeoutError::Disconnected)
        );
        assert_eq!(b.drain_undelivered(), 1);
        assert!(b.take_crashed().is_empty());
    }

    #[test]
    fn a_threads_round_resolves_to_the_oracle_and_telescopes() {
        let inputs = Inputs::new(workload("mesh_threads").unwrap());
        let mesh = Mesh::start(inputs.w);
        for round in 0..3 {
            let r = mesh.run_round(&inputs, 42, round, round == 2);
            let plan = inputs.mesh_round(42, round);
            assert_eq!(r.check(&inputs), Ok(()), "round {round}");
            assert_eq!(r.raised.len(), 2);
            assert!(r.raised.iter().all(|e| plan.raised.contains(e)));
            let t = r.times.expect("a completed round has all marks");
            let parts = t.step_lag_us() + t.agree_us() + t.commit_us();
            assert!(
                (parts - t.resolve_us()).abs() < 1e-6,
                "{parts} vs {}",
                t.resolve_us()
            );
            assert_eq!(r.log.is_some(), round == 2);
        }
        mesh.stop();
    }

    #[test]
    fn a_wire_round_resolves_to_the_oracle() {
        let inputs = Inputs::new(workload("mesh_wire").unwrap());
        let mesh = Mesh::start(inputs.w);
        let r = mesh.run_round(&inputs, 42, 0, false);
        assert_eq!(r.check(&inputs), Ok(()));
        assert_eq!(r.seen.messages, 16);
        mesh.stop();
    }
}
