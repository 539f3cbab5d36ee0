//! Running the resolution algorithm on real OS threads.
//!
//! The same [`Participant`] state machine that the simulator drives is
//! run here over [`caex_net::ThreadNet`] crossbeam channels — one thread
//! per participating object — demonstrating that the algorithm is an
//! executable protocol, not a simulation artefact. Virtual handler
//! costs become real (micro-)sleeps; scenario steps fire from a local
//! timer queue on each thread. The per-node loop is [`crate::drive`];
//! each event is applied through [`crate::ObsBridge::handle`], the
//! observed step this engine shares with the simulator host and
//! `caex-wire`, stamped with wall-clock microseconds.
//!
//! Termination uses an idle timeout: a thread that has seen no traffic
//! and has no due local events for the configured window assumes
//! quiescence and exits. That is a demo-grade termination rule (the
//! paper's §4.5 points at group membership services for the real
//! thing); the simulator engine remains the measurement instrument.

use crate::drive::drive_node_until;
use crate::obs::wall_stamp;
use crate::{Event, LeaveMode, NestedStrategy, Note, Participant};
use caex_action::{ActionId, ActionRegistry, HandlerTable};
use caex_net::{NetStats, NodeId, SimTime, ThreadNet};
use caex_tree::Exception;
use parking_lot::Mutex;
use std::sync::Arc;
use std::thread;
use std::time::{Duration, Instant};

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

/// Builder/driver for a threaded execution.
///
/// # Examples
///
/// ```
/// use caex::thread_engine::ThreadRunner;
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
/// let report = ThreadRunner::new(Arc::new(reg))
///     .enter_all_at(SimTime::ZERO, a1)
///     .raise_at(SimTime::from_millis(1), NodeId::new(0),
///               Exception::new(ExceptionId::new(1)))
///     .raise_at(SimTime::from_millis(1), NodeId::new(2),
///               Exception::new(ExceptionId::new(2)))
///     .run();
///
/// // All three objects handled the same resolved exception.
/// let agreed = report.agreed_exception(a1).unwrap();
/// assert_eq!(report.handled_exceptions(a1).len(), 3);
/// assert_eq!(agreed.id(), ExceptionId::new(1));
/// ```
pub struct ThreadRunner {
    registry: Arc<ActionRegistry>,
    strategy: NestedStrategy,
    steps: Vec<(SimTime, NodeId, Event)>,
    handlers: Vec<(NodeId, ActionId, HandlerTable)>,
    idle_timeout: Duration,
    crashes: Vec<(SimTime, NodeId)>,
    detection_delay: SimTime,
}

impl std::fmt::Debug for ThreadRunner {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("ThreadRunner")
            .field("steps", &self.steps.len())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl ThreadRunner {
    /// Creates a runner over the given action structure.
    #[must_use]
    pub fn new(registry: Arc<ActionRegistry>) -> Self {
        ThreadRunner {
            registry,
            strategy: NestedStrategy::Abort,
            steps: Vec::new(),
            handlers: Vec::new(),
            idle_timeout: Duration::from_millis(300),
            crashes: Vec::new(),
            detection_delay: SimTime::from_millis(50),
        }
    }

    /// Crashes `victim` at `time`: its thread halts abruptly
    /// mid-protocol (no farewell messages), and every survivor's
    /// failure detector reports the desertion one detection delay
    /// later. This is the in-process analogue of `caex-wire`'s
    /// `--crash` SIGKILL injection; with failover enabled (the
    /// default) survivors re-elect a resolver and finish resolution.
    #[must_use]
    pub fn crash_at(mut self, time: SimTime, victim: NodeId) -> Self {
        self.crashes.push((time, victim));
        self
    }

    /// Sets how long after a crash the survivors' failure detector
    /// reports it (default 50ms of wall clock). Thread scheduling is
    /// coarse, so keep this well above the crash time's jitter.
    #[must_use]
    pub fn with_detection_delay(mut self, delay: SimTime) -> Self {
        self.detection_delay = delay;
        self
    }

    /// Selects the nested-action strategy.
    #[must_use]
    pub fn with_strategy(mut self, strategy: NestedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Sets how long a thread may be idle before assuming quiescence.
    #[must_use]
    pub fn with_idle_timeout(mut self, timeout: Duration) -> Self {
        self.idle_timeout = timeout;
        self
    }

    /// Schedules `object` to enter `action` at `time` (relative to run
    /// start; `SimTime` micros become wall-clock micros).
    #[must_use]
    pub fn enter_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.steps.push((time, object, Event::Enter(action)));
        self
    }

    /// Schedules every participant of `action` to enter it at `time`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is undeclared.
    #[must_use]
    pub fn enter_all_at(mut self, time: SimTime, action: ActionId) -> Self {
        let participants = self
            .registry
            .scope(action)
            .expect("enter_all_at of undeclared action")
            .participants()
            .to_vec();
        for p in participants {
            self.steps.push((time, p, Event::Enter(action)));
        }
        self
    }

    /// Schedules `object` to raise `exc` at `time`.
    #[must_use]
    pub fn raise_at(mut self, time: SimTime, object: NodeId, exc: Exception) -> Self {
        self.steps.push((time, object, Event::Raise(exc)));
        self
    }

    /// Schedules `object` to reach `action`'s exit line at `time`. The
    /// threaded runtime has no central manager, so completion uses the
    /// decentralized leave protocol — the runner switches participants
    /// to [`LeaveMode::Distributed`] automatically when any completion
    /// is scheduled.
    #[must_use]
    pub fn complete_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.steps.push((time, object, Event::Complete(action)));
        self
    }

    /// Installs a handler table for `(object, action)`.
    #[must_use]
    pub fn handlers(mut self, object: NodeId, action: ActionId, table: HandlerTable) -> Self {
        self.handlers.push((object, action, table));
        self
    }

    /// The action structure this runner executes over.
    #[must_use]
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.registry
    }

    /// The scripted steps, in scheduling order — the same shape as
    /// [`crate::Scenario::scripted`], so static analyses (the
    /// `caex-lint` replay battery) can check a threaded script without
    /// running it.
    pub fn scripted(&self) -> impl Iterator<Item = (SimTime, NodeId, &Event)> {
        self.steps.iter().map(|(t, o, e)| (*t, *o, e))
    }

    /// The installed handler tables, mirroring
    /// [`crate::Scenario::handler_tables`].
    pub fn handler_tables(&self) -> impl Iterator<Item = (NodeId, ActionId, &HandlerTable)> {
        self.handlers.iter().map(|(o, a, t)| (*o, *a, t))
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
        let num_nodes = self
            .registry
            .iter()
            .flat_map(|(_, s)| s.participants().iter().copied())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        let net: ThreadNet<Event> = ThreadNet::new(num_nodes);
        let stats = net.stats();
        let ports = net.into_ports();
        let notes = Arc::new(Mutex::new(Vec::new()));
        let sink: Arc<ObsSink> = Arc::new(Mutex::new((crate::ObsBridge::new(), Vec::new())));
        let start = Instant::now();

        let uses_completion = self
            .steps
            .iter()
            .any(|(_, _, e)| matches!(e, Event::Complete(_)));
        let mut participants: Vec<Participant> = (0..num_nodes)
            .map(|i| {
                let mut p =
                    Participant::new(NodeId::new(i), Arc::clone(&self.registry), self.strategy);
                if uses_completion {
                    p.set_leave_mode(LeaveMode::Distributed);
                }
                p
            })
            .collect();
        for (object, action, table) in self.handlers {
            participants[object.index() as usize].set_handlers(action, table);
        }

        let mut steps_per_node: Vec<Vec<(SimTime, Event)>> =
            (0..num_nodes).map(|_| Vec::new()).collect();
        for (time, object, event) in self.steps {
            steps_per_node[object.index() as usize].push((time, event));
        }
        // Injected crashes: survivors hear about each one from their
        // (scripted) failure detector a detection delay later.
        for &(time, victim) in &self.crashes {
            let report_at = time + self.detection_delay;
            for survivor in (0..num_nodes).map(NodeId::new) {
                if survivor != victim {
                    steps_per_node[survivor.index() as usize]
                        .push((report_at, Event::DeserterSuspected { peer: victim }));
                }
            }
        }
        let halts: Vec<Option<Instant>> = (0..num_nodes)
            .map(|i| {
                self.crashes
                    .iter()
                    .filter(|(_, v)| v.index() == i)
                    .map(|(t, _)| start + Duration::from_micros(t.as_micros()))
                    .min()
            })
            .collect();

        let idle_timeout = self.idle_timeout;
        let mut joins = Vec::new();
        for (port, ((mut participant, steps), halt_at)) in ports
            .into_iter()
            .zip(participants.into_iter().zip(steps_per_node).zip(halts))
        {
            let notes = Arc::clone(&notes);
            let sink = Arc::clone(&sink);
            joins.push(thread::spawn(move || {
                drive_node_until(
                    &port,
                    &mut participant,
                    steps,
                    start,
                    idle_timeout,
                    halt_at,
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
            }));
        }
        for j in joins {
            j.join().expect("participant thread panicked");
        }
        let (_, events) = Arc::try_unwrap(sink)
            .map(Mutex::into_inner)
            .unwrap_or_else(|arc| {
                let guard = arc.lock();
                (crate::ObsBridge::new(), guard.1.clone())
            });
        for event in &events {
            obs.on_event(event);
        }
        obs.on_run_end(wall_stamp(start).0);
        let notes = Arc::try_unwrap(notes)
            .map(Mutex::into_inner)
            .unwrap_or_else(|arc| arc.lock().clone());
        let stats = stats.lock().clone();
        ThreadReport { notes, stats }
    }
}
