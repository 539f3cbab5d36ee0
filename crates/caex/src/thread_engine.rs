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
//! A thread ends where its object is done: the script runs with
//! distributed leave ([`Scenario::for_port_host`]), so an object leaves
//! each action at the §4.2 exit line once every live peer announced it,
//! and its thread exits when it has left its outermost action. A
//! thread whose object never gets that far — nobody raises or completes
//! — ends after 300 ms with nothing to do and no peer awaited; one
//! that waits for a peer that is gone (a crash with failover off) ends
//! at [`crate::drive::CAP`].

use crate::drive::{drive, PortHost};
use crate::obs::wall_stamp;
use crate::{Event, Note, Scenario};
use caex_action::ActionId;
use caex_net::{NetStats, NodeId, ThreadNet};
use caex_tree::Exception;
use parking_lot::Mutex;
use std::thread;
use std::time::{Duration, Instant};

/// How long a quiet node thread — in no resolution, at no announced
/// exit line, with no local event pending — waits for a message before
/// it ends.
const QUIET: Duration = Duration::from_millis(300);

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
/// cannot hold the caller's `&mut dyn Observer`). Only an observed run
/// builds one.
struct BufObs<'a> {
    events: &'a mut Vec<caex_obs::ObsEvent>,
}

impl caex_obs::Observer for BufObs<'_> {
    fn on_event(&mut self, event: &caex_obs::ObsEvent) {
        self.events.push(event.clone());
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

    /// Spawns one thread per object, runs each to its exit line (see
    /// the module documentation), and joins.
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
        let observes = obs.observes();
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
                        QUIET,
                        // An observed run holds the lock across the handle so
                        // bridge round state, event order and the wall
                        // timestamps stay globally consistent — acceptable
                        // serialization for a demo-grade engine (handler costs
                        // are queued, not slept, so the critical section is
                        // short). An unobserved one has nothing to keep
                        // consistent and takes no lock.
                        |p, ev, from| {
                            if !observes {
                                return p.handle(ev);
                            }
                            let mut guard = sink.lock();
                            let (bridge, events) = &mut *guard;
                            let mut fx = Vec::new();
                            let clock = || wall_stamp(start);
                            let mut buf = BufObs { events };
                            bridge.handle(p, ev, from, clock, &mut buf, &mut fx);
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

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::{self, Workload};
    use caex_net::SimTime;
    use caex_obs::Recorder;
    use std::collections::BTreeMap;
    use std::fmt;
    use std::sync::Arc;

    /// `workload`'s script with every step 2,000 times later: its
    /// microsecond gaps become milliseconds, wide enough for thread
    /// scheduling to keep the simulator's order of steps.
    fn on_threads(workload: &Workload) -> Scenario {
        let stretch = |t: SimTime| SimTime::from_micros(t.as_micros() * 2_000);
        let scenario = &workload.scenario;
        let mut out = Scenario::new(Arc::clone(scenario.registry()));
        for (at, node, event) in scenario.scripted() {
            out = match event {
                Event::Enter(action) => out.enter_at(stretch(at), node, *action),
                Event::Raise(exc) => out.raise_at(stretch(at), node, exc.clone()),
                other => panic!("unscripted step {other:?}"),
            };
        }
        out
    }

    /// What two threaded runs of one scenario must share whatever the
    /// threads' interleaving: the notes per kind, the messages sent
    /// and delivered per kind, and the agreed exception. Stale-message
    /// notes are left out: an ACK that a commit overtook on another
    /// channel is stale in one interleaving and not in the next.
    fn summary(report: &ThreadReport, action: ActionId) -> impl PartialEq + fmt::Debug {
        let mut notes: BTreeMap<String, usize> = BTreeMap::new();
        for note in &report.notes {
            if matches!(note, Note::StaleMessage { .. }) {
                continue;
            }
            let text = format!("{note:?}");
            let kind = text.split([' ', '(', '{']).next().unwrap_or_default();
            *notes.entry(kind.to_owned()).or_default() += 1;
        }
        let sent: Vec<(String, u64)> =
            report.stats.sent_by_kind().map(|(k, n)| (k.to_owned(), n)).collect();
        let delivered = report.stats.delivered_total();
        let agreed = report.agreed_exception(action).map(|e| e.id());
        (notes, sent, delivered, agreed)
    }

    #[test]
    fn run_reports_what_run_observed_with_a_recorder_does() {
        let (example1, _) = workloads::example1(Default::default());
        let general = workloads::general(4, 2, 1, Default::default());
        for workload in [example1, general] {
            let plain = ThreadRunner::new(on_threads(&workload)).run();
            let mut recorder = Recorder::default();
            let observed = ThreadRunner::new(on_threads(&workload)).run_observed(&mut recorder);
            assert!(!recorder.events.is_empty(), "a recorder observes");
            assert!(plain.agreed_exception(workload.action).is_some());
            assert_eq!(
                summary(&plain, workload.action),
                summary(&observed, workload.action)
            );
        }
    }
}
