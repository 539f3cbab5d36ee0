//! Scenario scripting and the discrete-event execution engine.

use crate::{Effect, Event, LeaveMode, NestedStrategy, Note, Participant};
use caex_action::{ActionId, ActionRegistry, HandlerTable};
use caex_net::{NetConfig, NetStats, NodeId, SimNet, SimTime, TraceLog};
use caex_tree::Exception;
use std::collections::HashMap;
use std::fmt;
use std::sync::Arc;

/// One committed resolution, as observed by the engine.
#[derive(Debug, Clone, PartialEq)]
pub struct ResolutionRecord {
    /// The action the resolution ran in.
    pub action: ActionId,
    /// The elected resolver (highest id among raisers).
    pub resolver: NodeId,
    /// The resolving exception everyone handles.
    pub resolved: Exception,
    /// The raised set that entered resolution.
    pub raised: Vec<(NodeId, Exception)>,
    /// Virtual time of the commit.
    pub at: SimTime,
}

/// One handler activation at one object.
#[derive(Debug, Clone, PartialEq)]
pub struct HandlerStart {
    /// The object.
    pub object: NodeId,
    /// The action whose handler ran.
    pub action: ActionId,
    /// The exception handled.
    pub exc: Exception,
    /// Virtual time of activation.
    pub at: SimTime,
}

/// Everything a scenario run produced.
#[derive(Debug)]
pub struct RunReport {
    /// Committed resolutions in commit order.
    pub resolutions: Vec<ResolutionRecord>,
    /// Every handler activation.
    pub handler_starts: Vec<HandlerStart>,
    /// Top-level action failures (object, action, failure exception).
    pub failures: Vec<(NodeId, ActionId, Exception)>,
    /// All notes, in emission order.
    pub notes: Vec<Note>,
    /// Message statistics of the run.
    pub stats: NetStats,
    /// Virtual time when the network went quiescent.
    pub finished_at: SimTime,
    /// Objects stuck mid-resolution at quiescence (deadlock/livelock
    /// indicators; empty on a healthy run).
    pub deadlocked: Vec<NodeId>,
    /// `true` if the run was stopped by the delivery limit.
    pub hit_delivery_limit: bool,
    /// Full network trace (empty unless tracing was enabled).
    pub trace: TraceLog,
    /// Protocol fan-outs by kind — the message count the §4.5 reliable
    /// multicast regime would need (each fan-out = one multicast, no
    /// ACKs).
    pub multicasts: std::collections::BTreeMap<String, u64>,
    /// Total bytes the protocol messages would occupy on the wire
    /// (per the [`crate::codec`] encoding) — §2.1's "narrow bandwidth"
    /// accounting.
    pub wire_bytes: u64,
}

impl RunReport {
    /// The resolution committed in `action`, if one happened.
    #[must_use]
    pub fn resolution_for(&self, action: ActionId) -> Option<&ResolutionRecord> {
        self.resolutions.iter().find(|r| r.action == action)
    }

    /// Total protocol messages sent.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.stats.sent_total()
    }

    /// Protocol messages sent of one kind (`"exception"`, `"ack"`,
    /// `"have_nested"`, `"nested_completed"`, `"commit"`).
    #[must_use]
    pub fn messages_of(&self, kind: &str) -> u64 {
        self.stats.sent_of_kind(kind)
    }

    /// The handler activations for `action`.
    #[must_use]
    pub fn handlers_for(&self, action: ActionId) -> Vec<&HandlerStart> {
        self.handler_starts
            .iter()
            .filter(|h| h.action == action)
            .collect()
    }

    /// Checks the agreement invariant for `action`: every participant
    /// that started a handler started it for the same exception.
    /// Returns that exception, or `None` if no handler ran.
    ///
    /// # Panics
    ///
    /// Panics if two objects handled *different* exceptions — a protocol
    /// violation worth failing loudly on.
    #[must_use]
    pub fn agreed_exception(&self, action: ActionId) -> Option<Exception> {
        let mut agreed: Option<Exception> = None;
        for h in self.handlers_for(action) {
            match &agreed {
                None => agreed = Some(h.exc.clone()),
                Some(prev) => assert_eq!(
                    prev.id(),
                    h.exc.id(),
                    "agreement violated in {action}: {} vs {}",
                    prev.id(),
                    h.exc.id()
                ),
            }
        }
        agreed
    }

    /// `true` when the run ended cleanly: no deadlocked objects and no
    /// delivery-limit stop.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.deadlocked.is_empty() && !self.hit_delivery_limit
    }

    /// Count of suppressed raises (objects already suspended).
    #[must_use]
    pub fn suppressed_raises(&self) -> usize {
        self.notes
            .iter()
            .filter(|n| matches!(n, Note::RaiseSuppressed { .. }))
            .count()
    }

    /// Total multicasts the run would need under the §4.5 reliable
    /// multicast implementation (one per protocol fan-out, ACK-free).
    #[must_use]
    pub fn multicasts_total(&self) -> u64 {
        self.multicasts.values().sum()
    }

    /// Multicasts of one kind (`"exception"`, `"have_nested"`,
    /// `"nested_completed"`, `"commit"`).
    #[must_use]
    pub fn multicasts_of(&self, kind: &str) -> u64 {
        self.multicasts.get(kind).copied().unwrap_or(0)
    }

    /// Count of stale messages discarded.
    #[must_use]
    pub fn stale_messages(&self) -> usize {
        self.notes
            .iter()
            .filter(|n| matches!(n, Note::StaleMessage { .. }))
            .count()
    }
}

impl fmt::Display for RunReport {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(
            f,
            "run finished at {} with {} resolution(s), {} message(s)",
            self.finished_at,
            self.resolutions.len(),
            self.total_messages()
        )?;
        for r in &self.resolutions {
            writeln!(
                f,
                "  {}: resolver {} committed {} over {{{}}} at {}",
                r.action,
                r.resolver,
                r.resolved.id(),
                r.raised
                    .iter()
                    .map(|(o, e)| format!("{o}:{}", e.id()))
                    .collect::<Vec<_>>()
                    .join(", "),
                r.at
            )?;
        }
        if !self.deadlocked.is_empty() {
            writeln!(f, "  DEADLOCKED: {:?}", self.deadlocked)?;
        }
        Ok(())
    }
}

/// A scripted execution: who enters which action when, who raises what
/// when, over which network. The scenario is the workload generator for
/// every experiment in the paper's evaluation.
///
/// # Examples
///
/// Example 1 of §4.3 — three objects, two concurrent exceptions:
///
/// ```
/// use caex::Scenario;
/// use caex_action::{ActionRegistry, ActionScope};
/// use caex_net::{NodeId, SimTime};
/// use caex_tree::{chain_tree, Exception, ExceptionId};
/// use std::sync::Arc;
///
/// let tree = Arc::new(chain_tree(3));
/// let mut reg = ActionRegistry::new();
/// let a1 = reg.declare(ActionScope::top_level(
///     "A1", (1..4).map(NodeId::new), Arc::clone(&tree),
/// )).unwrap();
///
/// let report = Scenario::new(Arc::new(reg))
///     .enter_all_at(SimTime::ZERO, a1)
///     .raise_at(SimTime::from_micros(10), NodeId::new(1),
///               Exception::new(ExceptionId::new(1)))
///     .raise_at(SimTime::from_micros(10), NodeId::new(2),
///               Exception::new(ExceptionId::new(2)))
///     .run();
///
/// let resolution = report.resolution_for(a1).unwrap();
/// assert_eq!(resolution.resolver, NodeId::new(2)); // max raiser
/// assert!(report.is_clean());
/// ```
pub struct Scenario {
    registry: Arc<ActionRegistry>,
    config: NetConfig,
    strategy: NestedStrategy,
    steps: Vec<(SimTime, NodeId, Event)>,
    handlers: Vec<(NodeId, ActionId, HandlerTable)>,
    nested_remaining: Vec<(NodeId, ActionId, Option<SimTime>)>,
    max_deliveries: u64,
    resolver_group: u32,
    leave_mode: LeaveMode,
    acceptance: Vec<(ActionId, AcceptanceTest)>,
    failover: bool,
    detection_delay: SimTime,
}

/// An exit-line acceptance test: `None` accepts, `Some(exc)` rejects
/// with the exception to raise (Fig. 2b).
type AcceptanceTest = Box<dyn FnMut() -> Option<Exception>>;

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("actions", &self.registry.len())
            .field("steps", &self.steps.len())
            .field("strategy", &self.strategy)
            .finish()
    }
}

impl Scenario {
    /// Starts a scenario over the given action structure.
    #[must_use]
    pub fn new(registry: Arc<ActionRegistry>) -> Self {
        Scenario {
            registry,
            config: NetConfig::default(),
            strategy: NestedStrategy::Abort,
            steps: Vec::new(),
            handlers: Vec::new(),
            nested_remaining: Vec::new(),
            max_deliveries: 1_000_000,
            resolver_group: 1,
            leave_mode: LeaveMode::Managed,
            acceptance: Vec::new(),
            failover: true,
            detection_delay: SimTime::from_micros(100),
        }
    }

    /// Installs an acceptance test at `action`'s exit line (§2.2: all
    /// participants "leave it at the same time once the acceptance test
    /// … has been satisfied"; Fig. 2b). When every participant reaches
    /// the exit line, `test` runs: `None` accepts and the joint leave is
    /// granted; `Some(exc)` rejects and `exc` is raised (in the
    /// highest-numbered participant, which thereby becomes the
    /// resolver), driving recovery through the normal resolution
    /// machinery instead of the leave.
    ///
    /// Only meaningful under the centralized [`LeaveMode::Managed`]
    /// coordinator (the decentralized protocol would need an agreement
    /// round to evaluate a joint predicate).
    #[must_use]
    pub fn with_exit_acceptance<F>(mut self, action: ActionId, test: F) -> Self
    where
        F: FnMut() -> Option<Exception> + 'static,
    {
        self.acceptance.push((action, Box::new(test)));
        self
    }

    /// Selects centralized (default, message-free) or decentralized
    /// (`LeaveReady` broadcasts) coordination of synchronized leaves.
    #[must_use]
    pub fn with_leave_mode(mut self, mode: LeaveMode) -> Self {
        self.leave_mode = mode;
        self
    }

    /// Sets the resolver-group size `k` (§4.4 fault-tolerance
    /// extension): the `k` highest raisers all resolve and commit.
    ///
    /// # Panics
    ///
    /// Panics if `k` is zero.
    #[must_use]
    pub fn with_resolver_group(mut self, k: u32) -> Self {
        assert!(k >= 1, "resolver group must contain at least one object");
        self.resolver_group = k;
        self
    }

    /// Replaces the network configuration (latency, faults, seed,
    /// tracing).
    #[must_use]
    pub fn with_config(mut self, config: NetConfig) -> Self {
        self.config = config;
        self
    }

    /// Selects the nested-action strategy (default: the paper's
    /// [`NestedStrategy::Abort`]).
    #[must_use]
    pub fn with_strategy(mut self, strategy: NestedStrategy) -> Self {
        self.strategy = strategy;
        self
    }

    /// Caps the number of deliveries before the run is stopped and
    /// flagged (livelock guard).
    #[must_use]
    pub fn with_delivery_limit(mut self, limit: u64) -> Self {
        self.max_deliveries = limit;
        self
    }

    /// Enables or disables resolver failover (default: enabled).
    ///
    /// With failover on, the engine plays the failure detector: every
    /// planned crash or restart in the fault plan is followed, one
    /// detection delay later, by an [`Event::DeserterSuspected`] at
    /// every survivor, and participants prune the deserter, re-elect a
    /// live resolver and fence the dead peer's late messages. With
    /// failover off the crash is still injected but never reported —
    /// the paper's literal §4.2 machine, which the model checker's
    /// CAEX018 proves can deadlock when the elected resolver dies.
    #[must_use]
    pub fn with_failover(mut self, enabled: bool) -> Self {
        self.failover = enabled;
        self
    }

    /// Sets the simulated failure-detector latency: the virtual time
    /// between a planned crash (or restart's down edge) and the
    /// [`Event::DeserterSuspected`] delivered to each survivor
    /// (default 100 µs). Only meaningful with failover enabled.
    #[must_use]
    pub fn with_detection_delay(mut self, delay: SimTime) -> Self {
        self.detection_delay = delay;
        self
    }

    /// Schedules `object` to enter `action` at `time`.
    #[must_use]
    pub fn enter_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.steps.push((time, object, Event::Enter(action)));
        self
    }

    /// Schedules every declared participant of `action` to enter it at
    /// `time`.
    ///
    /// # Panics
    ///
    /// Panics if `action` is not declared.
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

    /// Schedules `object` to raise `exc` in its then-active action.
    #[must_use]
    pub fn raise_at(mut self, time: SimTime, object: NodeId, exc: Exception) -> Self {
        self.steps.push((time, object, Event::Raise(exc)));
        self
    }

    /// Schedules `object` to complete `action` at `time`.
    #[must_use]
    pub fn complete_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.steps.push((time, object, Event::Complete(action)));
        self
    }

    /// Installs a handler table for `(object, action)`. Absence *is*
    /// the recover-all default (every exception of the action's tree
    /// recovers at zero cost, nested aborts are clean): nothing is
    /// built for objects without one.
    #[must_use]
    pub fn handlers(mut self, object: NodeId, action: ActionId, table: HandlerTable) -> Self {
        self.handlers.push((object, action, table));
        self
    }

    /// Declares remaining run time of `action` at `object` for the
    /// [`NestedStrategy::Wait`] comparison (`None` = never completes).
    #[must_use]
    pub fn nested_remaining(
        mut self,
        object: NodeId,
        action: ActionId,
        remaining: Option<SimTime>,
    ) -> Self {
        self.nested_remaining.push((object, action, remaining));
        self
    }

    /// The action structure this scenario runs over. Exposed so static
    /// analysis passes (`caex-lint`) can cross-check the scripted
    /// timeline against the declarations without executing it.
    #[must_use]
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.registry
    }

    /// The scripted timeline as `(time, object, event)` triples, in
    /// script order (the engine sorts by time at run time; this view
    /// preserves insertion order).
    pub fn scripted(&self) -> impl Iterator<Item = (SimTime, NodeId, &Event)> {
        self.steps.iter().map(|(t, o, e)| (*t, *o, e))
    }

    /// The installed handler tables as `(object, action)` bindings.
    pub fn handler_tables(&self) -> impl Iterator<Item = (NodeId, ActionId, &HandlerTable)> {
        self.handlers.iter().map(|(o, a, t)| (*o, *a, t))
    }

    /// The declared [`nested_remaining`](Self::nested_remaining) run
    /// times as `(object, action, remaining)` triples, in declaration
    /// order. Exposed for static analysis of the `Wait` strategy's
    /// deadlock conditions (Fig. 1a).
    pub fn nested_remaining_declared(
        &self,
    ) -> impl Iterator<Item = (NodeId, ActionId, Option<SimTime>)> + '_ {
        self.nested_remaining.iter().copied()
    }

    /// The nested-action strategy participants will run under.
    #[must_use]
    pub fn strategy(&self) -> NestedStrategy {
        self.strategy
    }

    /// The leave-coordination mode participants will run under.
    #[must_use]
    pub fn leave_mode(&self) -> LeaveMode {
        self.leave_mode
    }

    /// The resolver-group size `k` participants will run under.
    #[must_use]
    pub fn resolver_group_size(&self) -> u32 {
        self.resolver_group
    }

    /// Whether resolver failover is enabled (see
    /// [`Scenario::with_failover`]).
    #[must_use]
    pub fn failover(&self) -> bool {
        self.failover
    }

    /// The simulated failure-detector latency (see
    /// [`Scenario::with_detection_delay`]).
    #[must_use]
    pub fn detection_delay(&self) -> SimTime {
        self.detection_delay
    }

    /// The actions carrying exit-line acceptance tests, in installation
    /// order. The tests themselves are opaque closures; analyses that
    /// cannot evaluate them (the model checker) use this to detect
    /// their presence and bow out rather than silently mis-model the
    /// exit line.
    #[must_use]
    pub fn acceptance_actions(&self) -> Vec<ActionId> {
        self.acceptance.iter().map(|(a, _)| *a).collect()
    }

    /// Decomposes the scenario into its owned script parts — action
    /// structure, scripted timeline, handler-table bindings — so
    /// another runtime (the threaded engine, `caex-wire`'s per-process
    /// harness) can execute the same script. Engine-specific settings
    /// (network config, delivery limit, leave mode, acceptance tests)
    /// are dropped: they belong to the simulator, not the script.
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn into_script(
        self,
    ) -> (
        Arc<ActionRegistry>,
        Vec<(SimTime, NodeId, Event)>,
        Vec<(NodeId, ActionId, HandlerTable)>,
    ) {
        (self.registry, self.steps, self.handlers)
    }

    /// Executes the scenario to quiescence and reports.
    ///
    /// # Panics
    ///
    /// Panics on scenario programming errors surfaced by participants
    /// (entering actions out of nesting order, raising outside actions).
    #[must_use]
    pub fn run(self) -> RunReport {
        self.run_observed(&mut ())
    }

    /// Like [`Scenario::run`], but streams typed [`caex_obs::ObsEvent`]s
    /// to `obs` while the protocol executes — the engine's structured
    /// observability tap. The [`crate::ObsBridge`] translation layers on
    /// top of (never replaces) the `TraceLog` and `RunReport`.
    ///
    /// # Panics
    ///
    /// Panics on the same scenario programming errors as [`Scenario::run`].
    #[must_use]
    pub fn run_observed(self, obs: &mut dyn caex_obs::Observer) -> RunReport {
        let num_nodes = self
            .registry
            .iter()
            .flat_map(|(_, s)| s.participants().iter().copied())
            .map(|n| n.index() + 1)
            .max()
            .unwrap_or(0);
        // The engine plays the failure detector (with failover on):
        // collect the fault plan's crash/restart schedule before the
        // config moves into the net, then deliver a `DeserterSuspected`
        // to every survivor one detection delay after each down edge.
        let mut suspicions: Vec<(SimTime, NodeId)> = Vec::new();
        if self.failover {
            suspicions.extend(self.config.faults.crashes().map(|(n, at)| (at, n)));
            suspicions.extend(self.config.faults.restarts().map(|(n, down, _)| (down, n)));
        }
        let mut net: SimNet<Event> = SimNet::new(self.config, num_nodes);
        let mut participants: HashMap<NodeId, Participant> = (0..num_nodes)
            .map(NodeId::new)
            .map(|id| {
                let mut p = Participant::new(id, Arc::clone(&self.registry), self.strategy);
                p.set_resolver_group(self.resolver_group);
                p.set_leave_mode(self.leave_mode);
                p.set_failover(self.failover);
                (id, p)
            })
            .collect();
        for &(down_at, victim) in &suspicions {
            let report_at = down_at + self.detection_delay;
            for survivor in (0..num_nodes).map(NodeId::new) {
                if survivor != victim {
                    net.schedule_local(
                        report_at,
                        survivor,
                        Event::DeserterSuspected { peer: victim },
                    );
                }
            }
        }
        for (object, action, table) in self.handlers {
            participants
                .get_mut(&object)
                .expect("handler for unknown object")
                .set_handlers(action, table);
        }
        for (object, action, remaining) in self.nested_remaining {
            participants
                .get_mut(&object)
                .expect("nested_remaining for unknown object")
                .set_nested_remaining(action, remaining);
        }
        for (time, object, event) in self.steps {
            net.schedule_local(time, object, event);
        }

        let mut notes = Vec::new();
        let mut resolutions = Vec::new();
        let mut handler_starts = Vec::new();
        let mut failures = Vec::new();
        let mut multicasts = std::collections::BTreeMap::new();
        let mut wire_bytes = 0u64;
        let mut hit_delivery_limit = false;
        // Synchronized exit lines: action -> objects waiting to leave.
        let mut leave_requests: HashMap<ActionId, std::collections::BTreeSet<NodeId>> =
            HashMap::new();
        let mut acceptance: HashMap<ActionId, AcceptanceTest> =
            self.acceptance.into_iter().collect();
        let mut bridge = crate::ObsBridge::new();

        while let Some(delivery) = net.next_delivery() {
            if net.delivered_count() > self.max_deliveries {
                hit_delivery_limit = true;
                break;
            }
            let at = delivery.at;
            let object = delivery.to;
            let participant = participants
                .get_mut(&object)
                .expect("delivery to unknown object");
            if let caex_net::DeliverySource::Remote(from) = delivery.source {
                bridge.on_receive(object, &delivery.payload, from, at, None, obs);
            }
            let pre = bridge.pre(participant, &delivery.payload);
            let effects = participant.handle(delivery.payload);
            bridge.post(&pre, participant, &effects, at, None, obs);
            for effect in effects {
                match effect {
                    Effect::Send { to, msg } => {
                        wire_bytes += crate::codec::encoded_len(&msg) as u64;
                        net.send(object, to, Event::Msg(msg));
                    }
                    Effect::After { delay, event } => net.schedule_local_in(delay, object, event),
                    Effect::Note(note) => {
                        match &note {
                            Note::ResolutionCommitted {
                                action,
                                resolver,
                                resolved,
                                raised,
                            } => resolutions.push(ResolutionRecord {
                                action: *action,
                                resolver: *resolver,
                                resolved: resolved.clone(),
                                raised: raised.clone(),
                                at,
                            }),
                            Note::HandlerStarted {
                                object: o,
                                action,
                                exc,
                                ..
                            } => handler_starts.push(HandlerStart {
                                object: *o,
                                action: *action,
                                exc: exc.clone(),
                                at,
                            }),
                            Note::ActionFailed {
                                object: o,
                                action,
                                exc,
                            } => failures.push((*o, *action, exc.clone())),
                            Note::Multicast { kind, .. } => {
                                *multicasts.entry((*kind).to_owned()).or_insert(0u64) += 1;
                            }
                            Note::LeaveRequested { object: o, action }
                                if self.leave_mode == LeaveMode::Managed =>
                            {
                                // The centralized action manager's
                                // synchronized exit: grant the leave once
                                // every participant is at the line.
                                let waiting = leave_requests.entry(*action).or_default();
                                waiting.insert(*o);
                                let everyone = self
                                    .registry
                                    .scope(*action)
                                    .expect("declared action")
                                    .participants();
                                if waiting.len() == everyone.len() {
                                    // Fig. 2b: the acceptance test runs
                                    // at the exit line. Rejection turns
                                    // into a raised exception at the
                                    // highest-numbered participant; an
                                    // exhausted (or absent) test accepts.
                                    let verdict = acceptance.get_mut(action).and_then(|t| t());
                                    match verdict {
                                        Some(exc) => {
                                            waiting.clear();
                                            let tester =
                                                *everyone.last().expect("actions are non-empty");
                                            net.schedule_local(
                                                net.now(),
                                                tester,
                                                Event::Raise(exc),
                                            );
                                        }
                                        None => {
                                            for &member in everyone {
                                                net.schedule_local(
                                                    net.now(),
                                                    member,
                                                    Event::LeaveGranted(*action),
                                                );
                                            }
                                        }
                                    }
                                }
                            }
                            _ => {}
                        }
                        notes.push(note);
                    }
                }
            }
        }

        let deadlocked: Vec<NodeId> = participants
            .values()
            .filter(|p| !p.is_normal())
            .map(Participant::id)
            .collect();
        obs.on_run_end(net.now());

        RunReport {
            resolutions,
            handler_starts,
            failures,
            notes,
            stats: net.stats().clone(),
            finished_at: net.now(),
            deadlocked,
            hit_delivery_limit,
            trace: net.trace().clone(),
            multicasts,
            wire_bytes,
        }
    }
}
