//! Running the resolution algorithm on real OS threads.
//!
//! The same [`crate::Participant`] state machine that the simulator
//! drives is run here over [`caex_net::ThreadNet`] channels —
//! one thread per participating object — demonstrating that the
//! algorithm is an executable protocol, not a simulation artefact.
//! Virtual handler costs become real (micro-)sleeps; scenario steps
//! fire from a local timer queue on each thread. This module is only
//! what is about threads: the script is a [`Scenario`]'s, admitted the
//! way every host admits one ([`crate::Script::participant`] per node);
//! the per-node loop is [`crate::drive`]; each event is applied through
//! [`crate::ObsBridge::handle`], the observed step this engine shares
//! with the simulator host and `caex-wire`, stamped with wall-clock
//! microseconds.
//!
//! Termination uses an idle timeout: a thread that has seen no traffic
//! and has no due local events for the configured window assumes
//! quiescence and exits. That is a demo-grade termination rule (the
//! paper's §4.5 points at group membership services for the real
//! thing); the simulator engine remains the measurement instrument.

use crate::drive::{drive, PortHost};
use crate::obs::wall_stamp;
use crate::{Event, Note, Scenario};
use caex_action::ActionId;
use caex_net::{NetStats, NodeId, ThreadNet};
use caex_tree::Exception;
use parking_lot::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// How long a node thread may be idle before it assumes quiescence.
const IDLE_TIMEOUT: Duration = Duration::from_millis(300);

/// Outcome of a threaded run.
#[derive(Debug)]
pub struct ThreadReport {
    /// Every note emitted by any participant, in arrival order at the
    /// collector (inter-thread order is nondeterministic).
    pub notes: Vec<Note>,
    /// Network statistics.
    pub stats: NetStats,
}

impl ThreadReport {
    /// The exceptions whose handlers were started, grouped by action.
    #[must_use]
    pub fn handled_exceptions(&self, action: ActionId) -> Vec<(NodeId, Exception)> {
        self.notes
            .iter()
            .filter_map(|n| match n {
                Note::HandlerStarted {
                    object,
                    action: a,
                    exc,
                    ..
                } if *a == action => Some((*object, exc.clone())),
                _ => None,
            })
            .collect()
    }

    /// Checks the agreement invariant: all handlers started for
    /// `action` handled the same exception; returns it.
    ///
    /// # Panics
    ///
    /// Panics if two objects handled different exceptions.
    #[must_use]
    pub fn agreed_exception(&self, action: ActionId) -> Option<Exception> {
        let handled = self.handled_exceptions(action);
        let mut agreed: Option<Exception> = None;
        for (_, exc) in handled {
            match &agreed {
                None => agreed = Some(exc),
                Some(prev) => assert_eq!(prev.id(), exc.id(), "agreement violated"),
            }
        }
        agreed
    }
}

/// Observer adapter appending into a shared buffer (the worker threads
/// cannot hold the caller's `&mut dyn Observer`).
struct BufObs<'a>(&'a mut Vec<caex_obs::ObsEvent>);

impl caex_obs::Observer for BufObs<'_> {
    fn on_event(&mut self, event: &caex_obs::ObsEvent) {
        self.0.push(event.clone());
    }
}

type ObsSink = Mutex<(crate::ObsBridge, Vec<caex_obs::ObsEvent>)>;

/// Runs a [`Scenario`] on one OS thread per object.
///
/// The scenario is the one the simulator takes; what it says about the
/// script — timeline, handler tables, nested run times, strategy,
/// resolver group, failover — applies unchanged
/// ([`Scenario::for_port_host`]). Step times become wall-clock offsets
/// from the run's start. Of its network configuration only the fault
/// plan's crashes apply: the victim's thread halts abruptly
/// mid-protocol (no farewell messages — the in-process analogue of
/// `caex-wire`'s `--crash` SIGKILL) and, with failover on, every
/// survivor's failure detector reports the desertion one
/// [`Scenario::with_detection_delay`] later. Thread scheduling is
/// coarse, so keep that delay well above the crash time's jitter (tens
/// of milliseconds, not the simulator's default 100 µs).
///
/// # Examples
///
/// ```
/// use caex::thread_engine::ThreadRunner;
/// use caex::Scenario;
/// use caex_action::{ActionRegistry, ActionScope};
/// use caex_net::{NodeId, SimTime};
/// use caex_tree::{chain_tree, Exception, ExceptionId};
/// use std::sync::Arc;
///
/// let tree = Arc::new(chain_tree(2));
/// let mut reg = ActionRegistry::new();
/// let a1 = reg.declare(ActionScope::top_level(
///     "A1", (0..3).map(NodeId::new), Arc::clone(&tree),
/// )).unwrap();
///
/// let scenario = Scenario::new(Arc::new(reg))
///     .enter_all_at(SimTime::ZERO, a1)
///     .raise_at(SimTime::from_millis(1), NodeId::new(0),
///               Exception::new(ExceptionId::new(1)))
///     .raise_at(SimTime::from_millis(1), NodeId::new(2),
///               Exception::new(ExceptionId::new(2)));
/// let report = ThreadRunner::new(scenario).run();
///
/// // All three objects handled the same resolved exception.
/// let agreed = report.agreed_exception(a1).unwrap();
/// assert_eq!(report.handled_exceptions(a1).len(), 3);
/// assert_eq!(agreed.id(), ExceptionId::new(1));
/// ```
#[derive(Debug)]
pub struct ThreadRunner {
    scenario: Scenario,
}

impl ThreadRunner {
    /// Creates a runner for `scenario`.
    #[must_use]
    pub fn new(scenario: Scenario) -> Self {
        ThreadRunner { scenario }
    }

    /// Spawns one thread per object, runs to (idle-detected)
    /// quiescence, and joins.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked (scenario programming errors
    /// surface this way, as in the simulator engine).
    #[must_use]
    pub fn run(self) -> ThreadReport {
        self.run_observed(&mut ())
    }

    /// Like [`ThreadRunner::run`], but streams typed
    /// [`caex_obs::ObsEvent`]s to `obs`. Timestamps are wall-clock
    /// microseconds since run start (both as the event's `SimTime` and
    /// its `wall_micros`), so latency histograms measure real elapsed
    /// time. Events from all threads are serialized through one bridge
    /// (the correlation ids must be global) and replayed to `obs` after
    /// the join, in emission order.
    ///
    /// # Panics
    ///
    /// Panics if a worker thread panicked, as in [`ThreadRunner::run`].
    #[must_use]
    pub fn run_observed(self, obs: &mut dyn caex_obs::Observer) -> ThreadReport {
        let faults = self.scenario.config.faults.clone();
        assert!(
            faults.restarts().next().is_none(),
            "a halted thread does not come back: plan a crash, not a restart"
        );
        let mut script = self.scenario.for_port_host();
        let net: ThreadNet<Event> = ThreadNet::new(script.num_nodes());
        let stats = net.stats();
        let notes = Mutex::new(Vec::new());
        let sink: ObsSink = Mutex::new((crate::ObsBridge::new(), Vec::new()));
        let start = Instant::now();

        // The scope joins every worker and passes a worker's panic on.
        thread::scope(|workers| {
            for port in net.into_ports() {
                let node = port.id();
                let mut participant = script.participant(node);
                let steps = script.steps_for(node);
                let halt_at = faults
                    .crashes_at(node)
                    .map(|at| start + Duration::from_micros(at.as_micros()));
                let (notes, sink) = (&notes, &sink);
                workers.spawn(move || {
                    let mut host = PortHost::new(
                        &mut participant,
                        steps,
                        start,
                        IDLE_TIMEOUT,
                        // The lock is held across the handle so bridge round
                        // state, event order and the wall timestamps stay
                        // globally consistent — acceptable serialization for
                        // a demo-grade engine (handler costs are queued, not
                        // slept, so the critical section is short).
                        |p, ev, from| {
                            let mut guard = sink.lock();
                            let (bridge, events) = &mut *guard;
                            let mut fx = Vec::new();
                            let clock = || wall_stamp(start);
                            bridge.handle(p, ev, from, clock, &mut BufObs(events), &mut fx);
                            fx
                        },
                        |note| notes.lock().push(note),
                    );
                    host.halt_at(halt_at);
                    drive(&port, host);
                });
            }
        });
        let (_, events) = sink.into_inner();
        for event in &events {
            obs.on_event(event);
        }
        obs.on_run_end(wall_stamp(start).0);
        let notes = notes.into_inner();
        let stats = stats.lock().clone();
        ThreadReport { notes, stats }
    }
}
