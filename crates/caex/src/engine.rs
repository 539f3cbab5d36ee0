//! Scenario scripting and the single-script front-end of the simulator
//! host: a [`Scenario`] builds one [`Script`], admits it to a
//! [`SimHost`] (failure-detector reports from the fault plan,
//! acceptance tests), steps it to quiescence and collects a
//! [`RunReport`] — or hands the script to a port-driven host
//! ([`Scenario::for_port_host`]).

use crate::host::{AcceptanceTest, SimHost, Sink};
use crate::{Event, LeaveMode, Msg, NestedStrategy, Note, Script};
use caex_action::{ActionId, ActionRegistry, HandlerTable};
use caex_net::{LabelCounts, NetConfig, NetStats, NodeId, SimTime};
use caex_tree::Exception;
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
#[derive(Debug, Default)]
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
    /// Protocol fan-outs by kind — the message count the §4.5 reliable
    /// multicast regime would need (each fan-out = one multicast, no
    /// ACKs).
    pub multicasts: LabelCounts,
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
        self.multicasts.total()
    }

    /// Multicasts of one kind (`"exception"`, `"have_nested"`,
    /// `"nested_completed"`, `"commit"`).
    #[must_use]
    pub fn multicasts_of(&self, kind: &str) -> u64 {
        self.multicasts.get(kind)
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
    script: Script,
    pub(crate) config: NetConfig,
    max_deliveries: u64,
    acceptance: Vec<(ActionId, AcceptanceTest)>,
    detection_delay: SimTime,
}

impl fmt::Debug for Scenario {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("Scenario")
            .field("actions", &self.script.registry.len())
            .field("steps", &self.script.steps.len())
            .field("strategy", &self.script.strategy)
            .finish()
    }
}

impl Scenario {
    /// Starts a scenario over the given action structure.
    #[must_use]
    pub fn new(registry: Arc<ActionRegistry>) -> Self {
        Scenario {
            script: Script {
                registry,
                steps: Vec::new(),
                handlers: Vec::new(),
                nested_remaining: Vec::new(),
                strategy: NestedStrategy::Abort,
                resolver_group: 1,
                leave_mode: LeaveMode::Managed,
                failover: true,
            },
            config: NetConfig::default(),
            max_deliveries: 1_000_000,
            acceptance: Vec::new(),
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
        self.script.leave_mode = mode;
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
        self.script.resolver_group = k;
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
        self.script.strategy = strategy;
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
        self.script.failover = enabled;
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
        self.script.steps.push((time, object, Event::Enter(action)));
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
            .script
            .registry
            .scope(action)
            .expect("enter_all_at of undeclared action")
            .participants()
            .to_vec();
        for p in participants {
            self.script.steps.push((time, p, Event::Enter(action)));
        }
        self
    }

    /// Schedules `object` to raise `exc` in its then-active action.
    #[must_use]
    pub fn raise_at(mut self, time: SimTime, object: NodeId, exc: Exception) -> Self {
        self.script.steps.push((time, object, Event::Raise(exc)));
        self
    }

    /// Schedules `object` to complete `action` at `time`.
    #[must_use]
    pub fn complete_at(mut self, time: SimTime, object: NodeId, action: ActionId) -> Self {
        self.script.steps.push((time, object, Event::Complete(action)));
        self
    }

    /// Installs a handler table for `(object, action)`. Absence *is*
    /// the recover-all default (every exception of the action's tree
    /// recovers at zero cost, nested aborts are clean): nothing is
    /// built for objects without one.
    #[must_use]
    pub fn handlers(mut self, object: NodeId, action: ActionId, table: HandlerTable) -> Self {
        self.script.handlers.push((object, action, table));
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
        self.script.nested_remaining.push((object, action, remaining));
        self
    }

    /// The action structure this scenario runs over. Exposed so static
    /// analysis passes (`caex-lint`) can cross-check the scripted
    /// timeline against the declarations without executing it.
    #[must_use]
    pub fn registry(&self) -> &Arc<ActionRegistry> {
        &self.script.registry
    }

    /// The scripted timeline as `(time, object, event)` triples, in
    /// script order (the engine sorts by time at run time; this view
    /// preserves insertion order).
    pub fn scripted(&self) -> impl Iterator<Item = (SimTime, NodeId, &Event)> {
        self.script.steps.iter().map(|(t, o, e)| (*t, *o, e))
    }

    /// The installed handler tables as `(object, action)` bindings.
    pub fn handler_tables(&self) -> impl Iterator<Item = (NodeId, ActionId, &HandlerTable)> {
        self.script.handlers.iter().map(|(o, a, t)| (*o, *a, t))
    }

    /// The declared [`nested_remaining`](Self::nested_remaining) run
    /// times as `(object, action, remaining)` triples, in declaration
    /// order. Exposed for static analysis of the `Wait` strategy's
    /// deadlock conditions (Fig. 1a).
    pub fn nested_remaining_declared(
        &self,
    ) -> impl Iterator<Item = (NodeId, ActionId, Option<SimTime>)> + '_ {
        self.script.nested_remaining.iter().copied()
    }

    /// The nested-action strategy participants will run under.
    #[must_use]
    pub fn strategy(&self) -> NestedStrategy {
        self.script.strategy
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

    /// The script this scenario runs: what static analyses read the
    /// mesh size from and the model checker copies its worlds from.
    #[must_use]
    pub fn script(&self) -> &Script {
        &self.script
    }

    /// The registry, timeline and handler tables as a tuple. Kept only
    /// because `bench/` destructures it; hosts take the whole
    /// [`Script`] ([`Scenario::for_port_host`]).
    #[must_use]
    #[allow(clippy::type_complexity)]
    pub fn into_script(
        self,
    ) -> (
        Arc<ActionRegistry>,
        Vec<(SimTime, NodeId, Event)>,
        Vec<(NodeId, ActionId, HandlerTable)>,
    ) {
        (self.script.registry, self.script.steps, self.script.handlers)
    }

    /// The script, for a host that cannot run exit-line acceptance
    /// tests.
    ///
    /// # Panics
    ///
    /// Panics if the scenario carries one: `host` cannot honour it, and
    /// stripping it would change what the scenario means.
    pub(crate) fn script_for(self, host: &str) -> Script {
        if let Some((action, _)) = self.acceptance.first() {
            panic!("{host} cannot carry the exit-line acceptance test of {action}");
        }
        self.script
    }

    /// With failover on, the engine plays the failure detector: every
    /// planned crash or restart's down edge is reported to every
    /// survivor one detection delay later.
    fn report_planned_crashes(&mut self) {
        let faults = &self.config.faults;
        let down = faults
            .crashes()
            .map(|(n, at)| (at, n))
            .chain(faults.restarts().map(|(n, down, _)| (down, n)));
        self.script.report_crashes(down, self.detection_delay);
    }

    /// The script as a port-driven host runs it — one
    /// [`crate::drive`] loop per node over real channels or sockets
    /// (the thread engine, `caex-wire`): the fault plan's crashes
    /// reported as on the simulator, and, since such a host has no
    /// central manager to grant a joint leave, [`LeaveMode::Distributed`]:
    /// each object leaves an action at its exit line, scripted or
    /// reached at a handler's end, once every live peer announced it,
    /// and the host ends a node's run when it has left its outermost
    /// action. The network configuration and the delivery limit stay
    /// behind: they describe the simulator's net.
    ///
    /// # Panics
    ///
    /// Panics if the scenario carries an exit-line acceptance test
    /// (only the simulator's manager can run one).
    #[must_use]
    pub fn for_port_host(mut self) -> Script {
        self.report_planned_crashes();
        let mut script = self.script_for("a host without an action manager");
        script.leave_mode = LeaveMode::Distributed;
        script
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
    /// observability tap, and the one record of what each object did and
    /// each message's send and receipt (`caex_obs::text` renders it).
    ///
    /// # Panics
    ///
    /// Panics on the same scenario programming errors as [`Scenario::run`].
    #[must_use]
    pub fn run_observed(mut self, obs: &mut dyn caex_obs::Observer) -> RunReport {
        let num_nodes = self.script.num_nodes();
        self.report_planned_crashes();
        let mut host =
            SimHost::bridged(self.config, num_nodes, self.max_deliveries, self.acceptance);
        host.admit(&mut self.script, (0..num_nodes).map(NodeId::new), SimTime::ZERO);

        let mut report = RunReport::default();
        host.run(obs, &mut report);
        obs.on_run_end(host.net.now());

        report.deadlocked = host.deadlocked();
        report.hit_delivery_limit = host.hit_delivery_limit;
        report.finished_at = host.net.now();
        report.stats = host.net.into_stats();
        report
    }
}

/// The report collects itself from the host's steps.
impl Sink for RunReport {
    fn sent(&mut self, msg: &Msg) {
        self.wire_bytes += crate::codec::encoded_len(msg) as u64;
    }

    fn note(&mut self, at: SimTime, note: Note) {
        match &note {
            Note::ResolutionCommitted {
                action,
                resolver,
                resolved,
                raised,
            } => self.resolutions.push(ResolutionRecord {
                action: *action,
                resolver: *resolver,
                resolved: resolved.clone(),
                raised: raised.clone(),
                at,
            }),
            Note::HandlerStarted {
                object,
                action,
                exc,
                ..
            } => self.handler_starts.push(HandlerStart {
                object: *object,
                action: *action,
                exc: exc.clone(),
                at,
            }),
            Note::ActionFailed {
                object,
                action,
                exc,
            } => self.failures.push((*object, *action, exc.clone())),
            Note::Multicast { kind, .. } => self.multicasts.add(kind, 1),
            _ => {}
        }
        self.notes.push(note);
    }
}
