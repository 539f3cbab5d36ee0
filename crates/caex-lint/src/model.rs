//! Bounded explicit-state model checking of the §4.2 resolution
//! protocol (`CAEX015`–`CAEX019`).
//!
//! The seed-sweep explorer (`caex::explore`) samples message
//! interleavings through latency draws; this module *enumerates* them.
//! A [`Scenario`] is lifted into an abstract transition system whose
//! states are the joint protocol state of every participant plus the
//! FIFO channel contents ([`caex_net::ChannelState`]), and whose
//! transitions are:
//!
//! - **deliver** — pop the head of one nonempty FIFO channel and hand
//!   it to the destination participant (message latencies are
//!   abstracted away: any nonempty channel may deliver next, which is
//!   the union of all latency assignments);
//! - **local** — deliver the next `Effect::After` continuation queued
//!   at a node (handler and abortion costs are likewise abstracted);
//! - **script** — fire the next scripted event, gated by global
//!   time order: an event at time *t* becomes eligible only once every
//!   scripted event with a smaller time has fired, equal-time events of
//!   one object keep script order, and equal-time events of different
//!   objects interleave freely — exactly the engine's guarantee;
//! - **grant** — a `LeaveGranted` the managed exit line decided
//!   ([`caex::ExitLines`], the simulator's coordinator too) once the
//!   last live participant reached it or a desertion was reported
//!   (grants are a per-node *set*, so manager fan-out commutes and the
//!   partial-order reduction below stays sound);
//! - **crash** — only during the `CAEX018` sweep: a node deserts, its
//!   channels drop and every survivor folds the desertion in as an
//!   [`Event::DeserterSuspected`] through [`Participant::handle`].
//!
//! One deliberate abstraction keeps the system faithful: a scripted
//! `Raise` that the protocol *outran* — the raiser already left every
//! action, or the innermost action's single resolution already
//! committed — is discharged as a void step: in the simulator the
//! raise fires at its exact virtual time, long before multi-hop
//! resolution can complete under the configured latencies, so those
//! schedules correspond to no run of the scripted scenario.
//!
//! The DFS carries concrete worlds: checkable scenarios only install
//! declarative handlers, so a world forks in `O(state)` via
//! [`Participant::clone_declarative`] (single-successor chains move
//! the parent world instead of forking at all). States are
//! canonicalized by hashing ([`Participant::protocol_digest`] plus the
//! channel, continuation, script and manager state) and the
//! enumeration is pruned two ways:
//!
//! - **sleep sets** — transitions targeting different objects commute
//!   (each appends to channel backs and pops only its own inputs), so
//!   one representative order per commuting class suffices. A cached
//!   state is skipped only when a recorded sleep set is a subset of
//!   the current one, which keeps the cache interaction sound;
//! - **τ-confluence** — a delivery the destination classifies as
//!   invisible ([`Participant::delivery_silence`]: provably stale, a
//!   dead ACK, or parked/aborting-phase bookkeeping) is chained as the
//!   *sole* successor of its state instead of branching, provided the
//!   world-level co-enablement guards for the weaker
//!   [`Silence::WhenNodeIdle`](caex::Silence) class hold (no pending
//!   leave grant, only `AbortionDone` continuations queued locally,
//!   and no competing same-node channel head that could clear or
//!   replace the resolution in between).
//!
//! Every counterexample is validated before it is reported: the trace
//! is replayed step by step through fresh instances of the engine's
//! own [`Participant`] state machine and the violation must recur
//! ([`ModelViolation::replay_confirmed`]). The CLI's `check --model`
//! mode additionally cross-checks the verdict against the dynamic
//! seed sweep.

use crate::diag::{LintCode, Severity, Sink};
use caex::{route, Event, ExitLines, Msg, Note, Outbox, Participant, Scenario};
use caex_action::{ActionId, ActionRegistry};
use caex_net::{ChannelState, NodeId, SimTime};
use caex_tree::{ExceptionId, ExceptionTree, ReducedTree};
use std::collections::hash_map::DefaultHasher;
use std::collections::{BTreeMap, BTreeSet, HashMap, VecDeque};
use std::hash::{Hash, Hasher};
use std::sync::Arc;

/// Exploration budgets. The defaults verify the paper's Examples 1
/// and 2 exhaustively; raise them for bigger scopes, lower them for
/// debug-profile tests.
#[derive(Debug, Clone, Copy)]
pub struct ModelLimits {
    /// Maximum distinct states to visit before giving up
    /// ([`ModelReport::complete`] turns `false`).
    pub max_states: usize,
    /// Maximum transition-trace length (a runaway-loop backstop; the
    /// protocol itself is loop-free per action).
    pub max_trace: usize,
}

impl Default for ModelLimits {
    fn default() -> Self {
        ModelLimits {
            max_states: 200_000,
            max_trace: 4_096,
        }
    }
}

/// What to check, beyond the always-on safety and quiescence
/// properties.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelOptions {
    /// Exploration budgets.
    pub limits: ModelLimits,
    /// Run the `CAEX018` resolver-crash sweep: take the first
    /// violation-free terminal trace, crash the elected resolver after
    /// every prefix and exhaustively verify that the survivors still
    /// quiesce normally.
    pub crash_sweep: bool,
}

impl ModelOptions {
    /// Options with the default budgets and the crash sweep enabled.
    #[must_use]
    pub fn with_crash_sweep() -> Self {
        ModelOptions {
            crash_sweep: true,
            ..ModelOptions::default()
        }
    }
}

/// Counters describing one exploration.
#[derive(Debug, Clone, Copy, Default)]
pub struct ModelStats {
    /// Distinct canonical states visited.
    pub states: usize,
    /// Transitions applied (including replays' final steps).
    pub transitions: u64,
    /// Revisits pruned by the state cache.
    pub deduped: u64,
    /// Enabled transitions skipped by sleep sets.
    pub sleep_skips: u64,
    /// States where a τ-confluent silent delivery was chained as the
    /// sole successor instead of branching.
    pub silent_chains: u64,
}

impl ModelStats {
    fn absorb(&mut self, other: ModelStats) {
        self.states += other.states;
        self.transitions += other.transitions;
        self.deduped += other.deduped;
        self.sleep_skips += other.sleep_skips;
        self.silent_chains += other.silent_chains;
    }
}

/// One property violation with its replayable counterexample.
#[derive(Debug, Clone)]
pub struct ModelViolation {
    /// The diagnostic the violation maps to (`CAEX015`–`CAEX018`).
    pub code: LintCode,
    /// What broke.
    pub detail: String,
    /// The counterexample, one rendered transition per line.
    pub trace: Vec<String>,
    /// `true` when replaying the trace through fresh participants
    /// reproduced the violation — every reported counterexample should
    /// be confirmed; an unconfirmed one indicates checker
    /// nondeterminism and is itself reported by the CLI.
    pub replay_confirmed: bool,
}

/// The result of model-checking one scenario.
#[derive(Debug, Default)]
pub struct ModelReport {
    /// Exploration counters (all modes summed, crash sweep included).
    pub stats: ModelStats,
    /// `true` when every reachable state within the budgets was
    /// visited — the verdict is exhaustive, not sampled.
    pub complete: bool,
    /// `Some(reason)` when the scenario cannot be checked (opaque
    /// handler closures or exit-line acceptance tests); no violations
    /// are reported in that case.
    pub skipped: Option<String>,
    /// Every distinct violation found.
    pub violations: Vec<ModelViolation>,
    /// Every `(action, resolved class)` committed on some explored
    /// path — the oracle surface for cross-checks against the dynamic
    /// engine.
    pub commits: BTreeSet<(ActionId, ExceptionId)>,
    /// Number of crash points the `CAEX018` sweep covered.
    pub crash_points: usize,
}

impl ModelReport {
    /// `true` when the scenario was checked and nothing fired.
    #[must_use]
    pub fn is_clean(&self) -> bool {
        self.skipped.is_none() && self.violations.is_empty()
    }

    /// `true` when the scenario was *exhaustively* verified clean.
    #[must_use]
    pub fn verified(&self) -> bool {
        self.is_clean() && self.complete
    }
}

// ---------------------------------------------------------------------
// The abstract transition system.
// ---------------------------------------------------------------------

/// One transition. `Ord` gives the deterministic exploration order and
/// lets sleep sets live in `BTreeSet`s.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
enum Step {
    /// Pop the head of channel `from → to` and deliver it.
    Deliver { from: NodeId, to: NodeId },
    /// Deliver the next queued `Effect::After` continuation at `node`.
    Local { node: NodeId },
    /// Deliver a pending manager `LeaveGranted` to `node`.
    Grant { node: NodeId, action: ActionId },
    /// Fire scripted event `index`.
    Script { index: u32 },
    /// Crash `node` (crash-sweep prefixes only; never enumerated).
    Crash { node: NodeId },
}

/// The checkable essence of a [`Scenario`]: one participant per node,
/// configured by the scenario's own script from declarative copies of
/// its handler tables, and the sorted timeline. Extraction fails (the
/// scenario is *skipped*, not failed) when the scenario holds state
/// the checker cannot replicate.
struct Spec {
    registry: Arc<ActionRegistry>,
    /// Every world starts from a declarative copy of these.
    parts: BTreeMap<NodeId, Part>,
    script: Vec<(SimTime, NodeId, Event)>,
}

impl Spec {
    fn from_scenario(scenario: &Scenario) -> Result<Spec, String> {
        let accepted = scenario.acceptance_actions();
        if !accepted.is_empty() {
            return Err(format!(
                "exit-line acceptance tests on {accepted:?} are opaque closures the \
                 checker cannot enumerate"
            ));
        }
        let mut copy = scenario
            .script()
            .clone_declarative()
            .map_err(|(object, action)| {
                format!(
                    "handler table of {object} for {action} contains opaque closures; \
                     declare outcomes with on_outcome/on_abort_outcome to make the \
                     scenario checkable"
                )
            })?;
        let parts = (0..copy.num_nodes())
            .map(NodeId::new)
            .map(|id| (id, Part(copy.participant(id))))
            .collect();
        let mut script = copy.steps;
        // Stable: equal-time events keep script order, as the engine's
        // scheduler does.
        script.sort_by_key(|(t, _, _)| *t);
        Ok(Spec {
            registry: Arc::clone(scenario.registry()),
            parts,
            script,
        })
    }

    fn step_target(&self, step: Step) -> NodeId {
        match step {
            Step::Deliver { to, .. } => to,
            Step::Local { node } | Step::Grant { node, .. } | Step::Crash { node } => node,
            Step::Script { index } => self.script[index as usize].1,
        }
    }
}

/// A participant of a checkable scenario. Such a scenario holds only
/// declarative handler tables ([`Spec::from_scenario`] rejects the
/// rest), so its participants always clone.
struct Part(Participant);

impl Clone for Part {
    fn clone(&self) -> Self {
        Part(self.0.clone_declarative().expect("checkable participants clone"))
    }
}

/// One concrete global state. The DFS carries worlds directly:
/// checkable scenarios only install declarative handlers, so a world
/// forks cheaply by a clone ([`Participant::clone_declarative`]). Only
/// a replay keeps a log, and a replay never forks (counterexample
/// traces are replayed from the initial state for confirmation).
#[derive(Clone)]
struct World<'s> {
    spec: &'s Spec,
    parts: BTreeMap<NodeId, Part>,
    channels: ChannelState<Msg>,
    /// Pending `Effect::After` continuations, FIFO per node. Only the
    /// node's own transitions push here, so cross-target commutation
    /// is preserved.
    local: BTreeMap<NodeId, VecDeque<Event>>,
    /// Pending manager leave-grants (set semantics: fan-out commutes).
    grants: BTreeMap<NodeId, BTreeSet<ActionId>>,
    lines: ExitLines,
    fired: Vec<bool>,
    crashed: BTreeSet<NodeId>,
    raises: u32,
    commits: Vec<(ActionId, NodeId, ExceptionId)>,
    committed_class: BTreeMap<ActionId, ExceptionId>,
    /// Safety violations detected while applying transitions.
    faults: Vec<(LintCode, String)>,
    /// Paper-notation rendering of each applied step, when enabled.
    log: Option<Vec<String>>,
}

impl<'s> World<'s> {
    fn new(spec: &'s Spec) -> World<'s> {
        World {
            spec,
            parts: spec.parts.clone(),
            channels: ChannelState::new(),
            local: BTreeMap::new(),
            grants: BTreeMap::new(),
            lines: ExitLines::default(),
            fired: vec![false; spec.script.len()],
            crashed: BTreeSet::new(),
            raises: 0,
            commits: Vec::new(),
            committed_class: BTreeMap::new(),
            faults: Vec::new(),
            log: None,
        }
    }

    fn note_log(&mut self, line: impl FnOnce() -> String) {
        if let Some(log) = &mut self.log {
            log.push(line());
        }
    }

    /// Every transition enabled in this state, in deterministic order.
    fn enabled(&self) -> Vec<Step> {
        let mut out = Vec::new();
        for (from, to) in self.channels.nonempty_channels() {
            out.push(Step::Deliver { from, to });
        }
        for (&node, queue) in &self.local {
            if !queue.is_empty() {
                out.push(Step::Local { node });
            }
        }
        for (&node, actions) in &self.grants {
            for &action in actions {
                out.push(Step::Grant { node, action });
            }
        }
        // Script events: global time order; per object, only the
        // earliest unfired event of the frontier time is eligible.
        let frontier = self
            .spec
            .script
            .iter()
            .zip(&self.fired)
            .filter(|(_, fired)| !**fired)
            .map(|((t, _, _), _)| *t)
            .min();
        if let Some(t0) = frontier {
            let mut seen: BTreeSet<NodeId> = BTreeSet::new();
            for (i, ((t, object, _), fired)) in
                self.spec.script.iter().zip(&self.fired).enumerate()
            {
                if !*fired && *t == t0 && seen.insert(*object) {
                    out.push(Step::Script { index: i as u32 });
                }
            }
        }
        out
    }

    /// A delivery whose processing is provably invisible — see
    /// [`Participant::delivery_silence`]. Such a step commutes with
    /// every co-enabled transition, so the explorer applies it
    /// deterministically instead of branching (a τ-confluence
    /// reduction): the ACK storms, post-commit cleanup and parked-node
    /// bookkeeping that dominate broadcast interleavings collapse to
    /// one chain.
    ///
    /// [`Silence::WhenNodeIdle`] candidates additionally require that
    /// nothing else co-enabled can act on the same node first with a
    /// different outcome:
    ///
    /// - no pending leave grant (granted leave mutates the nesting
    ///   stack the premise reads);
    /// - queued local continuations only if they are all
    ///   `AbortionDone` (the one continuation the silence proof
    ///   commutes with — a handler completion could pop the active
    ///   action);
    /// - no other channel head carrying a `Commit` or another action's
    ///   message (either could clear or replace the resolution the
    ///   premise reads, or pre-empt the delivery's ACK reply into
    ///   staleness).
    ///
    /// Scripted events need no guard: every `WhenNodeIdle` class
    /// requires `res` to be in place, and at such a node a scripted
    /// `Enter` is skipped, a `Raise` is suppressed and a `Complete` is
    /// overtaken — all note-only no-ops that commute.
    fn silent_step(&self) -> Option<Step> {
        let heads = self.channels.nonempty_channels();
        'candidates: for &(from, to) in &heads {
            let msg = self.channels.front(from, to).expect("nonempty channel");
            match self.parts[&to].0.delivery_silence(msg) {
                None => continue,
                Some(caex::Silence::Always) => {}
                Some(caex::Silence::WhenNodeIdle) => {
                    if self.grants.contains_key(&to) {
                        continue;
                    }
                    if let Some(queue) = self.local.get(&to) {
                        if !queue
                            .iter()
                            .all(|e| matches!(e, Event::AbortionDone { .. }))
                        {
                            continue;
                        }
                    }
                    for &(f2, t2) in &heads {
                        if t2 != to || f2 == from {
                            continue;
                        }
                        let other = self.channels.front(f2, t2).expect("nonempty channel");
                        if matches!(other, Msg::Commit { .. }) || other.action() != msg.action() {
                            continue 'candidates;
                        }
                    }
                }
            }
            return Some(Step::Deliver { from, to });
        }
        None
    }

    fn apply(&mut self, step: Step) {
        match step {
            Step::Deliver { from, to } => {
                let msg = self.channels.pop(from, to).expect("enabled delivery");
                self.note_log(|| format!("deliver {from}→{to}: {msg}"));
                self.dispatch(to, Event::Msg(msg));
            }
            Step::Local { node } => {
                let queue = self.local.get_mut(&node).expect("enabled continuation");
                let event = queue.pop_front().expect("enabled continuation");
                if queue.is_empty() {
                    // Canonical digests: no empty queues linger.
                    self.local.remove(&node);
                }
                self.note_log(|| format!("continue at {node}: {}", render_event(&event)));
                self.dispatch(node, event);
            }
            Step::Grant { node, action } => {
                let actions = self.grants.get_mut(&node).expect("enabled grant");
                actions.remove(&action);
                if actions.is_empty() {
                    self.grants.remove(&node);
                }
                self.note_log(|| format!("manager grants leave of {action} to {node}"));
                self.dispatch(node, Event::LeaveGranted(action));
            }
            Step::Script { index } => {
                self.fired[index as usize] = true;
                let (time, object, event) = self.spec.script[index as usize].clone();
                if matches!(event, Event::Raise(_)) {
                    // Scripted raises belong to the action's computation
                    // phase. In schedules where the protocol outran the
                    // script — the raiser already left every action, or
                    // the innermost action's one resolution already
                    // committed — the raise is void (see module docs):
                    // under the simulator's positive latencies the raise
                    // always fires long before either can happen.
                    let active = self.parts.get(&object).and_then(|p| p.0.active_action());
                    let outrun = match active {
                        None => true,
                        Some(action) => self.committed_class.contains_key(&action),
                    };
                    if outrun {
                        self.note_log(|| {
                            format!(
                                "script t={time} at {object}: raise voided (the protocol \
                                 outran the script here)"
                            )
                        });
                        return;
                    }
                }
                self.note_log(|| format!("script t={time} at {object}: {}", render_event(&event)));
                self.dispatch(object, event);
            }
            Step::Crash { node } => self.crash(node),
        }
    }

    fn dispatch(&mut self, node: NodeId, event: Event) {
        let effects = self
            .parts
            .get_mut(&node)
            .expect("dispatch to unknown node")
            .0
            .handle(event);
        route(node, effects, self, &mut World::observe);
    }

    /// Folds a report note into the observation state, checking the
    /// per-commit safety properties as they happen.
    fn observe(&mut self, note: Note) {
        match note {
            Note::Raised { object, action, exc } => {
                self.note_log(|| format!("  note: {object} raised {} in {action}", exc.id()));
                self.raises += 1;
            }
            Note::ResolutionCommitted {
                action,
                resolver,
                resolved,
                raised,
            } => {
                self.check_commit(action, resolver, &resolved, &raised);
                self.commits.push((action, resolver, resolved.id()));
            }
            Note::HandlerStarted {
                object,
                action,
                exc,
                ..
            } => match self.committed_class.get(&action) {
                Some(&agreed) if agreed == exc.id() => {}
                Some(&agreed) => self.faults.push((
                    LintCode::ModelWrongResolution,
                    format!(
                        "{object} started a handler for {} in {action} but the committed \
                         resolution is {agreed}: agreement violated",
                        exc.id()
                    ),
                )),
                None => self.faults.push((
                    LintCode::ModelWrongResolution,
                    format!(
                        "{object} started a handler for {} in {action} before any \
                         resolution committed there",
                        exc.id()
                    ),
                )),
            },
            Note::LeaveRequested { object, .. } | Note::Deserted { object, .. } => {
                let Some(registry) = self.parts[&object].0.managed_exit() else { return };
                let grants = &mut self.grants;
                let grant = |node, event| match event {
                    Event::LeaveGranted(action) => {
                        grants.entry(node).or_default().insert(action);
                    }
                    _ => unreachable!("acceptance-tested scenarios are skipped"),
                };
                self.lines.hear(registry, &note, |_| None, grant);
            }
            _ => {}
        }
    }

    fn check_commit(
        &mut self,
        action: ActionId,
        resolver: NodeId,
        resolved: &caex_tree::Exception,
        raised: &[(NodeId, caex_tree::Exception)],
    ) {
        self.note_log(|| {
            format!(
                "  note: {resolver} committed {} for {action} over {:?}",
                resolved.id(),
                raised.iter().map(|(o, e)| (o.index(), e.id())).collect::<Vec<_>>()
            )
        });
        let scope = self
            .spec
            .registry
            .scope(action)
            .expect("committed actions are declared");
        match scope.tree().resolve(raised.iter().map(|(_, e)| e.id())) {
            Ok(oracle) if oracle == resolved.id() => {}
            Ok(oracle) => self.faults.push((
                LintCode::ModelWrongResolution,
                format!(
                    "resolution in {action} committed {} but the LCA of the raised set \
                     is {oracle} (ExceptionTree::resolve oracle)",
                    resolved.id()
                ),
            )),
            Err(_) => self.faults.push((
                LintCode::ModelWrongResolution,
                format!(
                    "resolution in {action} committed over a raised set outside the \
                     action's exception tree"
                ),
            )),
        }
        // §4.2 election, failover-adjusted: a deserted raiser's
        // exceptions stay in the resolved set (ghost entries) but its
        // id no longer votes, so the committing resolver must be the
        // max *live* raiser of the set.
        if let Some(max) = raised
            .iter()
            .map(|(o, _)| *o)
            .filter(|o| !self.crashed.contains(o))
            .max()
        {
            if max != resolver {
                self.faults.push((
                    LintCode::ModelWrongResolution,
                    format!(
                        "resolver {resolver} committed in {action} but the max live \
                         raiser of the resolved set is {max} (§4.2 election)"
                    ),
                ));
            }
        }
        if let Some(previous) = self.committed_class.insert(action, resolved.id()) {
            if previous != resolved.id() {
                self.faults.push((
                    LintCode::ModelWrongResolution,
                    format!(
                        "{action} committed twice with different classes: {previous} \
                         then {}",
                        resolved.id()
                    ),
                ));
            }
        }
    }

    /// A node deserts: drop its channels, queues and remaining script,
    /// and fold the desertion into every survivor, whose `Deserted`
    /// notes take it off the exit lines.
    fn crash(&mut self, node: NodeId) {
        self.note_log(|| format!("crash {node} (deserter)"));
        self.crashed.insert(node);
        self.channels.drop_node(node);
        self.local.remove(&node);
        self.grants.remove(&node);
        for (i, (_, object, _)) in self.spec.script.iter().enumerate() {
            if *object == node {
                self.fired[i] = true;
            }
        }
        let survivors: Vec<NodeId> = self
            .parts
            .keys()
            .copied()
            .filter(|n| !self.crashed.contains(n))
            .collect();
        for survivor in survivors {
            self.dispatch(survivor, Event::DeserterSuspected { peer: node });
        }
    }

    /// Live participants that are not back to quiescent normal
    /// computation. Without crashes, an object still *inside* an
    /// action at global quiescence is stuck too (nothing scripted can
    /// ever complete it); after a desertion, an orphan-discarded
    /// survivor legitimately resumes normal computation inside the
    /// action — its own remaining computation (invisible to the
    /// script) would complete it — so only mid-resolution objects
    /// count.
    fn stuck_live(&self, crash_mode: bool) -> Vec<String> {
        self.parts
            .values()
            .map(|p| &p.0)
            .filter(|p| !self.crashed.contains(&p.id()))
            .filter_map(|p| {
                if !p.is_normal() {
                    Some(format!("{} (mid-resolution)", p.id()))
                } else if let (false, Some(action)) = (crash_mode, p.active_action()) {
                    Some(format!("{} (inside {action})", p.id()))
                } else {
                    None
                }
            })
            .collect()
    }

    /// Canonical state digest. Run-constant configuration is excluded;
    /// everything order-sensitive is hashed through sorted views.
    fn digest(&self) -> u64 {
        let mut h = DefaultHasher::new();
        for p in self.parts.values() {
            p.0.protocol_digest(&mut h);
        }
        self.channels.hash(&mut h);
        self.local.hash(&mut h);
        self.grants.hash(&mut h);
        self.lines.hash(&mut h);
        self.fired.hash(&mut h);
        self.crashed.hash(&mut h);
        h.finish()
    }
}

/// A world is the outbox of every step it applies, through
/// [`caex::route`]: time is abstracted away (a continuation is one
/// queued step), and a message to a crashed node is lost.
impl Outbox for World<'_> {
    type Event = Event;

    fn send(&mut self, from: NodeId, to: NodeId, event: Event) {
        let Event::Msg(msg) = event else {
            unreachable!("a participant sends only messages")
        };
        if !self.crashed.contains(&to) {
            self.channels.send(from, to, msg);
        }
    }

    fn after(&mut self, node: NodeId, _: SimTime, event: Event) {
        self.local.entry(node).or_default().push_back(event);
    }
}

fn render_event(event: &Event) -> String {
    match event {
        Event::Msg(msg) => msg.to_string(),
        Event::Enter(a) => format!("Enter({a})"),
        Event::Complete(a) => format!("Complete({a})"),
        Event::Raise(exc) => format!("Raise({})", exc.id()),
        Event::LeaveGranted(a) => format!("LeaveGranted({a})"),
        Event::AbortionDone { action, .. } => format!("AbortionDone({action})"),
        Event::HandlerDone { action, .. } => format!("HandlerDone({action})"),
        Event::DeserterSuspected { peer } => format!("DeserterSuspected({peer})"),
        Event::PeerSuspected { peer } => format!("PeerSuspected({peer})"),
        Event::PeerRejoined { peer } => format!("PeerRejoined({peer})"),
    }
}

// ---------------------------------------------------------------------
// The explorer: DFS with state caching and sleep sets.
// ---------------------------------------------------------------------

struct Explorer<'s> {
    spec: &'s Spec,
    limits: ModelLimits,
    /// Steps applied before every explored trace (crash-sweep prefix).
    prefix: Vec<Step>,
    /// Crash mode: quiescence requires only the *survivors* to be
    /// normal, and a raise without a commit is acceptable (the only
    /// raiser may have deserted).
    crash_mode: bool,
    visited: HashMap<u64, Vec<BTreeSet<Step>>>,
    stats: ModelStats,
    complete: bool,
    violations: Vec<ModelViolation>,
    seen: BTreeSet<(&'static str, String)>,
    /// First violation-free terminal trace that committed a
    /// resolution — the canonical run the crash sweep perturbs.
    canonical: Option<Vec<Step>>,
    commits: BTreeSet<(ActionId, ExceptionId)>,
}

impl<'s> Explorer<'s> {
    fn new(spec: &'s Spec, limits: ModelLimits, prefix: Vec<Step>, crash_mode: bool) -> Self {
        Explorer {
            spec,
            limits,
            prefix,
            crash_mode,
            visited: HashMap::new(),
            stats: ModelStats::default(),
            complete: true,
            violations: Vec::new(),
            seen: BTreeSet::new(),
            canonical: None,
            commits: BTreeSet::new(),
        }
    }

    fn independent(&self, a: Step, b: Step) -> bool {
        self.spec.step_target(a) != self.spec.step_target(b)
    }

    fn run(&mut self) {
        // Clone-based DFS: each stack entry carries its concrete
        // [`World`], forked from its parent at push time, so visiting a
        // state costs one transition instead of an O(depth) replay from
        // the root. The chain-heavy shape of the reduced space makes
        // most expansions single-child, and those *move* the parent
        // world instead of forking it.
        let mut root = World::new(self.spec);
        for &step in &self.prefix {
            root.apply(step);
        }
        let base_faults = root.faults.len();
        let mut stack: Vec<(World<'s>, Vec<Step>, BTreeSet<Step>)> =
            vec![(root, Vec::new(), BTreeSet::new())];
        while let Some((world, trace, sleep)) = stack.pop() {
            if self.stats.states >= self.limits.max_states {
                self.complete = false;
                return;
            }
            if self.prefix.len() + trace.len() >= self.limits.max_trace {
                self.complete = false;
                continue;
            }
            if world.faults.len() > base_faults {
                let fresh: Vec<(LintCode, String)> = world.faults[base_faults..].to_vec();
                for (code, detail) in fresh {
                    self.report(code, detail, &trace);
                }
                // Prune below safety violations: every extension would
                // re-report the same broken commit.
                continue;
            }
            let digest = world.digest();
            let entry = self.visited.entry(digest).or_default();
            if entry.iter().any(|s| s.is_subset(&sleep)) {
                self.stats.deduped += 1;
                continue;
            }
            entry.push(sleep.clone());
            self.stats.states += 1;
            let enabled = world.enabled();
            if enabled.is_empty() {
                self.on_terminal(&world, &trace);
                continue;
            }
            let explorable: Vec<Step> = match world.silent_step() {
                // τ-confluence: chain the silent delivery as the sole
                // successor (taking it even when slept is sound — the
                // state cache absorbs any re-visit).
                Some(step) => {
                    self.stats.silent_chains += 1;
                    vec![step]
                }
                None => {
                    let explorable: Vec<Step> = enabled
                        .iter()
                        .copied()
                        .filter(|s| !sleep.contains(s))
                        .collect();
                    self.stats.sleep_skips += (enabled.len() - explorable.len()) as u64;
                    explorable
                }
            };
            let Some((&first, rest)) = explorable.split_first() else {
                continue;
            };
            // Siblings after the first fork the parent world; pushed in
            // reverse so the first explorable step is explored first.
            for (i, &step) in rest.iter().enumerate().rev() {
                let idx = i + 1;
                let mut child_sleep: BTreeSet<Step> = sleep
                    .iter()
                    .copied()
                    .filter(|&s| self.independent(s, step))
                    .collect();
                child_sleep.extend(
                    explorable[..idx]
                        .iter()
                        .copied()
                        .filter(|&s| self.independent(s, step)),
                );
                let mut child_world = world.clone();
                child_world.apply(step);
                self.stats.transitions += 1;
                let mut child = trace.clone();
                child.push(step);
                stack.push((child_world, child, child_sleep));
            }
            // The first child takes over the parent world by move — on
            // the dominant single-successor chains this makes each state
            // cost exactly one transition and zero forks.
            let child_sleep: BTreeSet<Step> = sleep
                .iter()
                .copied()
                .filter(|&s| self.independent(s, first))
                .collect();
            let mut child_world = world;
            child_world.apply(first);
            self.stats.transitions += 1;
            let mut child = trace;
            child.push(first);
            stack.push((child_world, child, child_sleep));
        }
    }

    fn on_terminal(&mut self, world: &World<'_>, trace: &[Step]) {
        let stuck = world.stuck_live(self.crash_mode);
        if !stuck.is_empty() {
            let code = if self.crash_mode {
                LintCode::ModelCrashVulnerable
            } else {
                LintCode::ModelDeadlock
            };
            let detail = if self.crash_mode {
                format!(
                    "after the resolver crash, the survivors quiesce stuck: {}",
                    stuck.join(", ")
                )
            } else {
                format!("quiescent state with stuck objects: {}", stuck.join(", "))
            };
            self.report(code, detail, trace);
        } else if !self.crash_mode && world.raises > 0 && world.commits.is_empty() {
            self.report(
                LintCode::ModelUnresolved,
                format!(
                    "{} exception(s) were raised but the run quiesced without any \
                     resolution commit",
                    world.raises
                ),
                trace,
            );
        } else if !self.crash_mode && self.canonical.is_none() && !world.commits.is_empty() {
            self.canonical = Some(trace.to_vec());
        }
        self.commits
            .extend(world.commits.iter().map(|&(a, _, e)| (a, e)));
    }

    fn report(&mut self, code: LintCode, detail: String, trace: &[Step]) {
        if !self.seen.insert((code.code(), detail.clone())) {
            return;
        }
        let mut full = self.prefix.clone();
        full.extend_from_slice(trace);
        let (log, confirmed) = self.render_and_confirm(&full, code, &detail);
        self.violations.push(ModelViolation {
            code,
            detail,
            trace: log,
            replay_confirmed: confirmed,
        });
    }

    /// Replays the counterexample through fresh participants with
    /// logging on and confirms the violation recurs — the bridge back
    /// to the dynamic engine: the very same [`Participant::handle`]
    /// machine the simulator drives is re-driven in trace order.
    fn render_and_confirm(
        &self,
        full_trace: &[Step],
        code: LintCode,
        detail: &str,
    ) -> (Vec<String>, bool) {
        let mut world = World::new(self.spec);
        world.log = Some(Vec::new());
        for &step in full_trace {
            world.apply(step);
        }
        let confirmed = match code {
            LintCode::ModelDeadlock | LintCode::ModelCrashVulnerable => {
                world.enabled().is_empty()
                    && !world.stuck_live(self.crash_mode).is_empty()
            }
            LintCode::ModelUnresolved => {
                world.enabled().is_empty() && world.raises > 0 && world.commits.is_empty()
            }
            _ => world
                .faults
                .iter()
                .any(|(c, d)| *c == code && d == detail),
        };
        (world.log.unwrap_or_default(), confirmed)
    }
}

// ---------------------------------------------------------------------
// Entry points.
// ---------------------------------------------------------------------

/// Model-checks `scenario` and reports violations into `sink` as
/// `CAEX015`–`CAEX018` diagnostics with the counterexample trace as
/// `help:` spans. Returns the full [`ModelReport`].
pub(crate) fn check_scenario_into(
    sink: &mut Sink<'_>,
    scenario: &Scenario,
    options: &ModelOptions,
) -> ModelReport {
    let spec = match Spec::from_scenario(scenario) {
        Ok(spec) => spec,
        Err(reason) => {
            return ModelReport {
                complete: false,
                skipped: Some(reason),
                ..ModelReport::default()
            }
        }
    };
    let subject = format!(
        "model({} objects, {} script events)",
        spec.parts.len(),
        spec.script.len()
    );

    let mut explorer = Explorer::new(&spec, options.limits, Vec::new(), false);
    explorer.run();
    let mut report = ModelReport {
        stats: explorer.stats,
        complete: explorer.complete,
        skipped: None,
        violations: explorer.violations,
        commits: explorer.commits,
        crash_points: 0,
    };

    if options.crash_sweep && report.violations.is_empty() {
        if let Some(canonical) = explorer.canonical.clone() {
            sweep_crashes(&spec, options.limits, &canonical, &mut report);
        }
    }

    for violation in &report.violations {
        let mut help = vec![format!(
            "counterexample ({} steps, replay {}):",
            violation.trace.len(),
            if violation.replay_confirmed {
                "confirmed"
            } else {
                "NOT confirmed"
            }
        )];
        help.extend(violation.trace.iter().cloned());
        sink.emit_with_help(violation.code, &subject, violation.detail.clone(), help);
    }
    report
}

/// The `CAEX018` sweep: replay the canonical violation-free run, crash
/// the elected resolver after every prefix, and exhaustively verify
/// that the survivors still quiesce normally.
fn sweep_crashes(
    spec: &Spec,
    limits: ModelLimits,
    canonical: &[Step],
    report: &mut ModelReport,
) {
    // The victim is the elected resolver of the canonical run's first
    // commit — the node whose desertion §4.5 must survive.
    let mut probe = World::new(spec);
    for &step in canonical {
        probe.apply(step);
    }
    let Some(&(_, victim, _)) = probe.commits.first() else {
        return;
    };
    // One explorer for the whole sweep: the post-crash state spaces of
    // neighbouring cuts overlap almost entirely (a canonical step that
    // only advances the victim leaves the survivors' world identical),
    // so a shared visited cache collapses the sweep to the *union* of
    // the cut spaces instead of their sum. The state budget is likewise
    // shared across all cuts.
    let mut explorer = Explorer::new(spec, limits, Vec::new(), true);
    let mut seen: BTreeSet<(&'static str, String)> = BTreeSet::new();
    for cut in 0..=canonical.len() {
        let mut prefix: Vec<Step> = canonical[..cut].to_vec();
        prefix.push(Step::Crash { node: victim });
        explorer.prefix = prefix;
        let before = explorer.violations.len();
        explorer.run();
        report.crash_points += 1;
        for violation in &mut explorer.violations[before..] {
            violation.detail = format!(
                "resolver {victim} crashed after step {cut}/{}: {}",
                canonical.len(),
                violation.detail
            );
        }
    }
    report.stats.absorb(explorer.stats);
    report.complete &= explorer.complete;
    for violation in explorer.violations {
        if seen.insert((violation.code.code(), violation.detail.clone())) {
            report.violations.push(violation);
        }
    }
    report.commits.extend(explorer.commits.iter().copied());
}

/// Satellite of the `--model` battery: static worst-case analysis of
/// the Campbell–Randell *interleaved reduced trees* configuration
/// (`CAEX019`). A fixpoint over `closest_handled_ancestor` predicts
/// the §3.3 domino: every known class a party cannot handle is climbed
/// and re-raised, and the re-raise is new knowledge for everyone. When
/// the domino destroys all diagnosis (the final resolution falls to
/// the universal exception although the initial raises did not), the
/// finding escalates to deny severity.
pub(crate) fn lint_cr_domino_into(
    sink: &mut Sink<'_>,
    tree: &ExceptionTree,
    reduced: &[ReducedTree],
    initial: &[(NodeId, ExceptionId)],
) {
    if initial.is_empty() || reduced.is_empty() {
        return;
    }
    let subject = format!("cr({} parties)", reduced.len());
    // Known classes, each with the set of parties that raised it — a
    // party only climbs a class it *learnt from someone else* (its own
    // raise never triggers its own re-raise, matching `cr::run`).
    let mut known: BTreeMap<ExceptionId, BTreeSet<usize>> = BTreeMap::new();
    for &(raiser, exc) in initial {
        known
            .entry(exc)
            .or_default()
            .insert(raiser.index() as usize);
    }
    let initial_count = known.len();
    let mut chain: Vec<String> = Vec::new();
    let mut rounds = 0u32;
    loop {
        let mut fresh: BTreeMap<ExceptionId, BTreeSet<usize>> = BTreeMap::new();
        for (party, r) in reduced.iter().enumerate() {
            for (&exc, raisers) in &known {
                if raisers.contains(&party) {
                    continue;
                }
                let Ok(climbed) = r.closest_handled_ancestor(tree, exc) else {
                    continue;
                };
                if climbed != exc && !known.contains_key(&climbed) {
                    let newly = !fresh.contains_key(&climbed);
                    fresh.entry(climbed).or_default().insert(party);
                    if newly {
                        chain.push(format!(
                            "round {}: party {party} cannot handle {exc}, climbs to \
                             {climbed} and re-raises it",
                            rounds + 1
                        ));
                    }
                }
            }
        }
        if fresh.is_empty() {
            break;
        }
        rounds += 1;
        for (exc, raisers) in fresh {
            known.entry(exc).or_default().extend(raisers);
        }
    }
    let domino = known.len() - initial_count;
    if domino == 0 {
        return;
    }
    let resolved = tree
        .resolve(known.keys().copied())
        .unwrap_or_else(|_| tree.root());
    let initially_resolved = tree
        .resolve(initial.iter().map(|&(_, e)| e))
        .unwrap_or_else(|_| tree.root());
    let message = format!(
        "interleaved reduced trees re-raise {domino} extra class(es) over {rounds} \
         round(s): the §3.3 domino climbs from {initial_count} initial raise(s) to a \
         {}-class storm resolving to {resolved}",
        known.len()
    );
    let mut help = chain;
    help.push(format!(
        "worst case: {} distinct classes end up raised; the paper's algorithm raises \
         exactly the initial set",
        known.len()
    ));
    if resolved == tree.root() && initially_resolved != tree.root() {
        help.push(
            "the domino spans the whole interleaving: resolution falls to the universal \
             exception although the initial raises did not — all diagnosis is lost"
                .to_owned(),
        );
        sink.emit_escalated(LintCode::CrDominoDepth, Severity::Deny, &subject, message, help);
    } else {
        sink.emit_with_help(LintCode::CrDominoDepth, &subject, message, help);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::LintConfig;
    use caex::workloads;
    use caex_action::{ActionScope, HandlerTable};
    use caex_net::NetConfig;
    use caex_tree::{chain_tree, Exception};

    fn check(scenario: &Scenario, options: &ModelOptions) -> (crate::LintReport, ModelReport) {
        let config = LintConfig::new();
        let mut sink = Sink::new(&config);
        let model = check_scenario_into(&mut sink, scenario, options);
        (sink.finish(), model)
    }

    #[test]
    fn example1_verifies_clean_without_crashes() {
        let (workload, _) = workloads::example1(NetConfig::default());
        let (lint, model) = check(&workload.scenario, &ModelOptions::default());
        assert!(lint.is_clean(), "{}", lint.render());
        assert!(model.verified(), "{model:?}");
        assert!(model.stats.states > 10, "trivial exploration: {:?}", model.stats);
        // The oracle surface: A1 resolves to the LCA of {e1, e2} on
        // every path where both raises collide, and to a single class
        // where one resolution wins alone.
        assert!(!model.commits.is_empty());
    }

    #[test]
    fn two_node_scenario_with_crash_sweep_survives() {
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", (0..2).map(NodeId::new), tree))
            .expect("valid");
        let scenario = Scenario::new(Arc::new(reg))
            .enter_all_at(SimTime::ZERO, a)
            .raise_at(
                SimTime::from_micros(5),
                NodeId::new(0),
                Exception::new(ExceptionId::new(1)),
            );
        let (lint, model) = check(&scenario, &ModelOptions::with_crash_sweep());
        assert!(lint.is_clean(), "{}", lint.render());
        assert!(model.verified(), "{model:?}");
        assert!(model.crash_points > 0, "sweep ran: {model:?}");
    }

    #[test]
    fn opaque_handler_tables_are_skipped_not_failed() {
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level(
                "A",
                (0..2).map(NodeId::new),
                Arc::clone(&tree),
            ))
            .expect("valid");
        let mut table = HandlerTable::recover_all(Arc::clone(&tree));
        table.on(ExceptionId::new(1), SimTime::ZERO, |_| {
            caex_action::HandlerOutcome::Recovered
        });
        let scenario = Scenario::new(Arc::new(reg))
            .enter_all_at(SimTime::ZERO, a)
            .handlers(NodeId::new(0), a, table)
            .raise_at(
                SimTime::ZERO,
                NodeId::new(0),
                Exception::new(ExceptionId::new(1)),
            );
        let (lint, model) = check(&scenario, &ModelOptions::default());
        assert!(model.skipped.is_some(), "{model:?}");
        assert!(model.violations.is_empty());
        assert!(lint.is_clean(), "{}", lint.render());
    }

    #[test]
    fn never_completing_scenario_deadlocks_with_confirmed_trace() {
        // One object enters and never completes or raises: the model
        // quiesces with the object still inside the action.
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", (0..2).map(NodeId::new), tree))
            .expect("valid");
        let scenario = Scenario::new(Arc::new(reg)).enter_all_at(SimTime::ZERO, a);
        let (lint, model) = check(&scenario, &ModelOptions::default());
        assert!(lint.fired(LintCode::ModelDeadlock), "{}", lint.render());
        assert!(model
            .violations
            .iter()
            .all(|v| v.replay_confirmed && !v.trace.is_empty()));
    }

    #[test]
    fn cr_domino_fires_and_escalates_on_interleaved_chains() {
        let tree = chain_tree(8);
        let reduced = caex::cr::interleaved_parties(&tree, 8, 2);
        let config = LintConfig::new();
        let mut sink = Sink::new(&config);
        lint_cr_domino_into(
            &mut sink,
            &tree,
            &reduced,
            &[(NodeId::new(0), ExceptionId::new(8))],
        );
        let report = sink.finish();
        assert!(report.fired(LintCode::CrDominoDepth));
        assert!(report.has_denials(), "domino to the root escalates: {}", report.render());
    }

    #[test]
    fn cr_full_handlers_stay_quiet() {
        let tree = chain_tree(8);
        let reduced = vec![ReducedTree::full(&tree); 2];
        let config = LintConfig::new();
        let mut sink = Sink::new(&config);
        lint_cr_domino_into(
            &mut sink,
            &tree,
            &reduced,
            &[(NodeId::new(1), ExceptionId::new(8))],
        );
        assert!(sink.finish().is_clean());
    }
}
