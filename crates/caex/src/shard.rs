//! Multi-action engine sharding: one process multiplexing a fleet of
//! independent CA actions.
//!
//! [`Scenario`] owns a single action structure per run. Under load, a
//! resolution server faces a different shape: many independent
//! top-level actions arriving over time, each resolving its own
//! exceptions, sharing the process. This module supplies that shape:
//!
//! - [`ActionInstance`] — one action structure plus its scripted
//!   timeline, relocated to a private `NodeId` range and a private
//!   [`ActionId`] range (via
//!   [`caex_action::ActionRegistry::with_base`]), so every instance
//!   keys its protocol state, metrics and observability by its own
//!   `(ActionId, round)` spans;
//! - [`FleetEngine`] — shards instances round-robin across worker
//!   threads; each shard is the multi-script front-end of the crate's
//!   one simulator host (the same `step` [`Scenario::run`] drives),
//!   interleaving all of its instances' deliveries in virtual-time
//!   order, with admission control (`capacity` concurrent slots per
//!   shard) so that offered load beyond capacity queues, exactly like
//!   a bounded worker pool;
//! - [`ActionOutcome`] / [`FleetReport`] — per-action arrival,
//!   admission, commit and completion times, message counts and the
//!   §4.4 `(N−1)(2P+3Q+1)` law verdict, plus fleet-wide stats.
//!
//! A shard holds only the instances it is running. Once an instance
//! has finished and the net holds nothing more for any of its nodes, it
//! is retired: its participants leave the host (whose slab reuses their
//! slots), its outcome is assembled from counters that can no longer
//! move, and the instance — script, registry, tree — is dropped. So a
//! shard's live state scales with its capacity, not with its batch; an
//! instance that never gets there (a deadlock, the delivery cap, a last
//! event suppressed at a crashed node) is reported when the shard goes
//! quiescent.
//!
//! The law verdict comes from counts the shard keeps anyway: the
//! message count is `NetStats`' per-action `sent`, and for each
//! resolution round the shard hears in its notes — opened by a
//! `Raised`, closed by the first `ResolutionCommitted` — it records `P`,
//! the distinct classes of the committed raised set, and `Q`, the
//! objects that aborted or waited for nested actions of the round's
//! action; `N` is the action's declared participants. The metrics
//! observer of `caex_obs`, attached through
//! [`FleetEngine::run_observed`] with the same law, computes the same
//! verdict from the event stream (`crates/caex/tests/shard.rs` holds
//! the two equal).
//!
//! All measured quantities are *virtual time*: worker threads give
//! wall-clock speedup, but reports are bit-identical for a given seed
//! regardless of the host's scheduling.

use crate::host::{SimHost, Sink, SHARD_DELIVERY_CAP};
use crate::obs::distinct_classes;
use crate::{Event, Note, Scenario, Script};
use caex_action::ActionId;
use caex_net::{IdMap, NetConfig, NetStats, NodeId, SimTime};
use caex_tree::Exception;
use std::collections::{BTreeMap, VecDeque};

/// One relocatable action structure plus its scripted timeline, ready
/// to be multiplexed by a [`FleetEngine`].
///
/// Build one from any single-top-level-action [`Scenario`] (the
/// canonical path is [`crate::workloads::general_at`], which relocates
/// the §4.4 workload to per-instance node/action bases).
#[derive(Debug)]
pub struct ActionInstance {
    /// The scenario's script; its step times are offsets from the
    /// instance's admission time.
    script: Script,
    /// Open-loop arrival time (absolute virtual time).
    arrival: SimTime,
    /// Latency budget from arrival, if the request carries a deadline.
    deadline: Option<SimTime>,
    /// The single top-level action; commit of this action defines the
    /// instance's latency.
    key: ActionId,
    nodes: Vec<NodeId>,
}

impl ActionInstance {
    /// Wraps a scenario as a fleet instance arriving at `arrival`.
    /// The scenario's scripted times become offsets from admission.
    ///
    /// # Panics
    ///
    /// Panics unless the scenario declares exactly one top-level
    /// action (an instance is one request; script several instances
    /// for several requests), and if it carries exit-line acceptance
    /// tests: the closures are not `Send`, so a multi-shard fleet
    /// cannot honour them.
    #[must_use]
    pub fn from_scenario(scenario: Scenario, arrival: SimTime) -> Self {
        let mut script = scenario.script_for("an ActionInstance");
        // A queued instance holds its script until admission: no slack.
        script.steps.shrink_to_fit();
        let registry = &script.registry;
        let top = registry.top_level();
        assert_eq!(
            top.len(),
            1,
            "an ActionInstance is one top-level action, got {}",
            top.len()
        );
        let key = top[0];
        let nodes = registry
            .scope(key)
            .expect("top-level action is declared")
            .participants()
            .to_vec();
        ActionInstance {
            script,
            arrival,
            deadline: None,
            key,
            nodes,
        }
    }

    /// Attaches a per-request latency budget, measured from arrival.
    #[must_use]
    pub fn with_deadline(mut self, deadline: SimTime) -> Self {
        self.deadline = Some(deadline);
        self
    }

    /// The instance's open-loop arrival time.
    #[must_use]
    pub fn arrival(&self) -> SimTime {
        self.arrival
    }

    /// The instance's top-level action id.
    #[must_use]
    pub fn key(&self) -> ActionId {
        self.key
    }

    /// The nodes this instance occupies (participants of the top-level
    /// action; nested participants are a subset by §3.1).
    #[must_use]
    pub fn nodes(&self) -> &[NodeId] {
        &self.nodes
    }

    /// The instance's action-id range as `base..base+len`.
    #[must_use]
    pub(crate) fn action_range(&self) -> std::ops::Range<u32> {
        let registry = &self.script.registry;
        registry.base()..registry.base() + registry.len() as u32
    }
}

/// Fleet engine configuration: how many shards, how many concurrent
/// admission slots each shard serves, and the shared network model.
#[derive(Debug, Clone)]
pub struct FleetConfig {
    /// Worker shards. Instances are assigned round-robin by index;
    /// shard `s` seeds its network with `net.seed` plus a per-shard
    /// offset (shard 0 keeps `net.seed` exactly, so a one-shard fleet
    /// of one instance reproduces `Scenario::run` bit-for-bit).
    pub shards: usize,
    /// Concurrent action slots per shard. Arrivals beyond capacity
    /// queue in arrival order; queueing delay shows up in virtual
    /// time, which is what the saturation curves measure.
    pub capacity: usize,
    /// Network model template applied per shard.
    pub net: NetConfig,
    /// §4.4 message law `f(n, p, q)` each instance's rounds are
    /// checked against, e.g. [`crate::analysis::messages_general`];
    /// `None` leaves every [`ActionOutcome::law_holds`] `None`.
    pub law: Option<fn(u64, u64, u64) -> u64>,
    /// Collect folded flame-graph stacks per shard (costs one string
    /// per distinct stack; off for pure throughput runs).
    pub collect_flame: bool,
}

impl Default for FleetConfig {
    fn default() -> Self {
        FleetConfig {
            shards: 1,
            capacity: 8,
            net: NetConfig::default(),
            law: None,
            collect_flame: false,
        }
    }
}

/// What happened to one action instance under load.
#[derive(Debug, Clone)]
pub struct ActionOutcome {
    /// Global instance index (fleet submission order).
    pub instance: usize,
    /// Shard that served the instance.
    pub shard: usize,
    /// The instance's top-level action id.
    pub key: ActionId,
    /// Open-loop arrival time.
    pub arrival: SimTime,
    /// Admission time (`>= arrival`; the difference is queueing delay).
    pub admitted: SimTime,
    /// Commit time of the resolution, if one committed.
    pub committed: Option<SimTime>,
    /// Time the instance fully drained (handlers done, participants
    /// back to normal) and released its slot.
    pub finished: Option<SimTime>,
    /// The elected resolver, if a resolution committed.
    pub resolver: Option<NodeId>,
    /// The resolving exception everyone handled.
    pub resolved: Option<Exception>,
    /// Protocol messages sent on behalf of this instance's actions.
    pub messages: u64,
    /// The §4.4 prediction for the instance: [`FleetConfig::law`]
    /// summed over its committed rounds inside the closed form's domain
    /// (`P ≥ 1`, `P + Q ≤ N`); `None` without a law or such a round.
    /// The shard counts `N`, `P` and `Q` from the notes it hears (see
    /// the module documentation).
    pub law_predicted: Option<u64>,
    /// Per-instance law verdict: `Some(true)` iff [`Self::messages`]
    /// equals [`Self::law_predicted`]; `None` when there is no
    /// prediction.
    pub law_holds: Option<bool>,
    /// Absolute deadline (arrival + budget), if one was attached.
    pub deadline: Option<SimTime>,
}

impl ActionOutcome {
    /// Arrival-to-commit latency in µs (`None` if never committed).
    #[must_use]
    pub fn latency_us(&self) -> Option<u64> {
        self.committed
            .map(|c| c.saturating_sub(self.arrival).as_micros())
    }

    /// `true` if the instance carried a deadline and blew it (either
    /// committed late or never committed).
    #[must_use]
    pub(crate) fn deadline_missed(&self) -> bool {
        match self.deadline {
            None => false,
            Some(d) => self.committed.is_none_or(|c| c > d),
        }
    }
}

/// Everything a fleet run produced.
#[derive(Debug)]
pub struct FleetReport {
    /// One outcome per instance, in submission order.
    pub outcomes: Vec<ActionOutcome>,
    /// Merged network statistics across shards (per-action counters
    /// included, since every shard's net is shared by many actions).
    pub stats: NetStats,
    /// Virtual time each shard went quiescent.
    pub shard_finished: Vec<SimTime>,
    /// Objects stuck mid-resolution at quiescence, across shards.
    pub deadlocked: Vec<NodeId>,
    /// `true` if any shard hit its delivery cap.
    pub hit_delivery_limit: bool,
    /// Folded flame-graph stacks merged across shards (only with
    /// [`FleetConfig::collect_flame`]).
    pub folded: Option<String>,
}

impl FleetReport {
    /// The fleet makespan: the latest shard quiescence time.
    #[must_use]
    pub fn makespan(&self) -> SimTime {
        self.shard_finished.iter().copied().max().unwrap_or(SimTime::ZERO)
    }

    /// Instances whose resolution committed.
    #[must_use]
    pub fn committed_count(&self) -> usize {
        self.outcomes.iter().filter(|o| o.committed.is_some()).count()
    }

    /// Instances that carried a deadline and missed it.
    #[must_use]
    pub fn deadline_misses(&self) -> usize {
        self.outcomes.iter().filter(|o| o.deadline_missed()).count()
    }

    /// The fleet's §4.4 verdict: `Some(true)` iff the law held on
    /// every instance that carries a verdict, and `None` when none does
    /// (no law configured, or no round the law covers), so an empty set
    /// of verdicts never reads as a pass.
    #[must_use]
    pub fn law_all_hold(&self) -> Option<bool> {
        self.outcomes
            .iter()
            .filter_map(|o| o.law_holds)
            .reduce(|all, holds| all && holds)
    }

    /// Arrival-to-commit latencies of all committed instances, µs.
    #[must_use]
    pub fn latencies_us(&self) -> Vec<u64> {
        self.outcomes.iter().filter_map(ActionOutcome::latency_us).collect()
    }

    /// Achieved throughput in actions per virtual second (committed
    /// count over the makespan).
    #[must_use]
    pub fn throughput_per_sec(&self) -> f64 {
        let span_us = self.makespan().as_micros();
        if span_us == 0 {
            return 0.0;
        }
        #[allow(clippy::cast_precision_loss)]
        {
            self.committed_count() as f64 * 1_000_000.0 / span_us as f64
        }
    }
}

/// The multi-action engine: shards a fleet of [`ActionInstance`]s
/// across worker threads and runs each shard's event loop to
/// quiescence.
///
/// # Examples
///
/// Two relocated §4.4 instances through one single-shard engine:
///
/// ```
/// use caex::shard::{ActionInstance, FleetConfig, FleetEngine};
/// use caex::{analysis, workloads};
/// use caex_net::SimTime;
///
/// let instances = (0..2)
///     .map(|i| {
///         let w = workloads::general_at(3, 1, 0, i * 3, i, Default::default());
///         ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * 10))
///     })
///     .collect();
/// let config = FleetConfig { law: Some(analysis::messages_general), ..Default::default() };
/// let report = FleetEngine::new(config).run(instances);
/// assert_eq!(report.committed_count(), 2);
/// assert!(report.outcomes.iter().all(|o| o.law_holds == Some(true)));
/// assert_eq!(report.outcomes[0].messages, analysis::messages_general(3, 1, 0));
/// ```
#[derive(Debug, Default)]
pub struct FleetEngine {
    config: FleetConfig,
}

/// Per-shard golden-ratio seed stride, so shards draw independent
/// latency streams while shard 0 keeps the configured seed exactly.
const SHARD_SEED_STRIDE: u64 = 0x9E37_79B9_7F4A_7C15;

impl FleetEngine {
    /// Creates an engine with the given fleet configuration.
    #[must_use]
    pub fn new(config: FleetConfig) -> Self {
        FleetEngine { config }
    }

    /// Runs the fleet to quiescence. Instances are assigned to shards
    /// round-robin by index; give them non-decreasing arrival times
    /// for open-loop semantics.
    ///
    /// # Panics
    ///
    /// Panics if `shards` or `capacity` is zero, if two instances in
    /// one shard overlap in node range, or on scenario programming
    /// errors surfaced by participants.
    #[must_use]
    pub fn run(&self, instances: Vec<ActionInstance>) -> FleetReport {
        assert!(self.config.shards >= 1, "need at least one shard");
        assert!(self.config.capacity >= 1, "need at least one slot");
        let shards = self.config.shards;
        let outputs: Vec<ShardOutput> = if shards == 1 {
            vec![run_shard(instances, 0, 1, &self.config, &mut ())]
        } else {
            let mut per_shard: Vec<Vec<ActionInstance>> =
                (0..shards).map(|_| Vec::new()).collect();
            for (i, inst) in instances.into_iter().enumerate() {
                per_shard[i % shards].push(inst);
            }
            std::thread::scope(|scope| {
                let handles: Vec<_> = per_shard
                    .into_iter()
                    .enumerate()
                    .map(|(s, batch)| {
                        let config = &self.config;
                        scope.spawn(move || run_shard(batch, s, shards, config, &mut ()))
                    })
                    .collect();
                handles.into_iter().map(|h| h.join().expect("shard thread")).collect()
            })
        };
        merge_outputs(outputs, self.config.collect_flame)
    }

    /// Like [`FleetEngine::run`], but streams every shard's
    /// [`caex_obs::ObsEvent`]s to `obs`. Only available single-shard
    /// (an external observer cannot be shared across worker threads
    /// without destroying determinism).
    ///
    /// # Panics
    ///
    /// Panics if the configuration asks for more than one shard, plus
    /// the conditions of [`FleetEngine::run`].
    #[must_use]
    pub fn run_observed(
        &self,
        instances: Vec<ActionInstance>,
        obs: &mut dyn caex_obs::Observer,
    ) -> FleetReport {
        assert_eq!(self.config.shards, 1, "run_observed is single-shard");
        assert!(self.config.capacity >= 1, "need at least one slot");
        let output = run_shard(instances, 0, 1, &self.config, obs);
        merge_outputs(vec![output], self.config.collect_flame)
    }
}

/// What one shard hands back to the merger.
struct ShardOutput {
    outcomes: Vec<ActionOutcome>,
    stats: NetStats,
    finished_at: SimTime,
    deadlocked: Vec<NodeId>,
    hit_delivery_limit: bool,
    folded: Option<String>,
}

fn merge_outputs(outputs: Vec<ShardOutput>, collect_flame: bool) -> FleetReport {
    let mut outcomes = Vec::new();
    let mut stats: Option<NetStats> = None;
    let mut shard_finished = Vec::new();
    let mut deadlocked = Vec::new();
    let mut hit_delivery_limit = false;
    let mut folded_merged: BTreeMap<String, u64> = BTreeMap::new();
    for out in outputs {
        outcomes.extend(out.outcomes);
        // The first shard's record is kept as it is; the rest fold in.
        match &mut stats {
            None => stats = Some(out.stats),
            Some(stats) => stats.merge(&out.stats),
        }
        shard_finished.push(out.finished_at);
        deadlocked.extend(out.deadlocked);
        hit_delivery_limit |= out.hit_delivery_limit;
        if let Some(folded) = out.folded {
            for line in folded.lines() {
                if let Some((stack, count)) = line.rsplit_once(' ') {
                    if let Ok(us) = count.parse::<u64>() {
                        *folded_merged.entry(stack.to_owned()).or_default() += us;
                    }
                }
            }
        }
    }
    outcomes.sort_by_key(|o| o.instance);
    deadlocked.sort_unstable();
    let folded = collect_flame.then(|| {
        let mut out = String::new();
        for (stack, us) in &folded_merged {
            out.push_str(&format!("{stack} {us}\n"));
        }
        out
    });
    FleetReport {
        outcomes,
        stats: stats.unwrap_or_default(),
        shard_finished,
        deadlocked,
        hit_delivery_limit,
        folded,
    }
}

/// One resolution round of an instance's action, as the shard hears
/// it: opened by a `Raised` note in the action while no round of it is
/// open, closed by the round's first `ResolutionCommitted` (replicas of
/// a resolver group commit the same result) — the rounds the
/// observability bridge numbers.
struct Round {
    action: ActionId,
    /// The distinct exception classes in the committed raised set
    /// (signalled raises included): `P`. `None` while the round is open.
    p: Option<u64>,
    /// The objects that aborted or waited for nested actions to enter
    /// the round: `Q`.
    aborters: Vec<NodeId>,
}

/// Tracking state for one admitted instance.
#[derive(Default)]
struct Live {
    admitted: SimTime,
    committed: Option<SimTime>,
    finished: Option<SimTime>,
    resolver: Option<NodeId>,
    resolved: Option<Exception>,
    handlers_open: u64,
    /// The instance's resolution rounds, in the order they opened.
    rounds: Vec<Round>,
}

impl Live {
    /// The latest round of `action`, open or not.
    fn round_of(&mut self, action: ActionId) -> Option<&mut Round> {
        self.rounds.iter_mut().rev().find(|r| r.action == action)
    }
}

/// `Tracker::node_owner` for a node no instance of the batch occupies.
const NO_OWNER: u32 = u32::MAX;

/// A shard's view of its instances, fed by the host's steps. The
/// per-node table is dense: the shard's node ids are `< num_nodes`.
struct Tracker {
    /// node -> local slot in the batch, or [`NO_OWNER`].
    node_owner: Vec<u32>,
    /// action id -> local slot in the batch, for the admitted and not
    /// yet retired instances.
    action_owner: IdMap<ActionId, usize>,
    live: Vec<Option<Live>>,
}

impl Tracker {
    fn owner_of_node(&self, node: NodeId) -> Option<usize> {
        let owner = self.node_owner[node.index() as usize];
        (owner != NO_OWNER).then_some(owner as usize)
    }

    fn live_of_action(&mut self, action: ActionId) -> Option<&mut Live> {
        let local = *self.action_owner.get(&action)?;
        self.live[local].as_mut()
    }
}

impl Sink for Tracker {
    fn delivering(&mut self, to: NodeId, event: &Event) {
        if matches!(event, Event::HandlerDone { .. }) {
            if let Some(slot) = self.owner_of_node(to).and_then(|l| self.live[l].as_mut()) {
                slot.handlers_open = slot.handlers_open.saturating_sub(1);
            }
        }
    }

    fn note(&mut self, at: SimTime, note: Note) {
        match note {
            Note::Raised { action, .. } => {
                if let Some(slot) = self.live_of_action(action) {
                    if slot.round_of(action).is_none_or(|r| r.p.is_some()) {
                        slot.rounds.push(Round { action, p: None, aborters: Vec::new() });
                    }
                }
            }
            Note::AbortedNested { object, outer, .. }
            | Note::WaitingForNested { object, outer, .. } => {
                if let Some(round) = self.live_of_action(outer).and_then(|s| s.round_of(outer)) {
                    if !round.aborters.contains(&object) {
                        round.aborters.push(object);
                    }
                }
            }
            Note::ResolutionCommitted {
                action,
                resolver,
                resolved,
                raised,
            } => {
                let Some(slot) = self.live_of_action(action) else { return };
                if let Some(round) = slot.round_of(action).filter(|r| r.p.is_none()) {
                    round.p = Some(distinct_classes(&raised) as u64);
                }
                if slot.committed.is_none() {
                    slot.committed = Some(at);
                    slot.resolver = Some(resolver);
                    slot.resolved = Some(resolved);
                }
            }
            Note::HandlerStarted { action, .. } => {
                if let Some(slot) = self.live_of_action(action) {
                    slot.handlers_open += 1;
                }
            }
            _ => {}
        }
    }
}

/// The §4.4 verdict on an instance that sent `messages`: the law summed
/// over its committed rounds inside the closed form's domain (`P ≥ 1`,
/// `P + Q ≤ N`, `N` the action's participants), and whether the count
/// equals it. `(None, None)` without a law or such a round.
fn law_verdict(
    law: Option<fn(u64, u64, u64) -> u64>,
    inst: &ActionInstance,
    rounds: &[Round],
    messages: u64,
) -> (Option<u64>, Option<bool>) {
    let Some(law) = law else { return (None, None) };
    let mut predicted = None;
    for round in rounds {
        let Some(p) = round.p else { continue };
        let n = inst
            .script
            .registry
            .scope(round.action)
            .map_or(0, |scope| scope.participants().len() as u64);
        let q = round.aborters.len() as u64;
        if p >= 1 && p + q <= n {
            *predicted.get_or_insert(0) += law(n, p, q);
        }
    }
    (predicted, predicted.map(|want| want == messages))
}

/// The outcome of `inst`, fleet instance `instance` on `shard`, which
/// `live` tracked if it was admitted.
fn outcome(
    inst: &ActionInstance,
    instance: usize,
    shard: usize,
    live: Option<&Live>,
    stats: &NetStats,
    law: Option<fn(u64, u64, u64) -> u64>,
) -> ActionOutcome {
    let messages = inst
        .action_range()
        .map(|a| stats.action_counters(a).sent)
        .sum();
    let (law_predicted, law_holds) =
        law_verdict(law, inst, live.map_or(&[], |l| &l.rounds), messages);
    ActionOutcome {
        instance,
        shard,
        key: inst.key,
        arrival: inst.arrival,
        admitted: live.map_or(inst.arrival, |l| l.admitted),
        committed: live.and_then(|l| l.committed),
        finished: live.and_then(|l| l.finished),
        resolver: live.and_then(|l| l.resolver),
        resolved: live.and_then(|l| l.resolved.clone()),
        messages,
        law_predicted,
        law_holds,
        deadline: inst.deadline.map(|d| inst.arrival + d),
    }
}

/// Runs one shard to quiescence: interleave all assigned instances'
/// deliveries in virtual-time order, admitting instances into
/// `capacity` slots in arrival order. Local slot `l` of the batch is
/// fleet instance `l * stride + shard`.
///
/// An instance is retired once it has finished and the net holds
/// nothing more for its nodes: its participants leave the host, its
/// outcome is assembled (its message counters are final) and the
/// instance is dropped. What never gets there — a deadlock, the
/// delivery cap, a last event suppressed at a crashed node — is
/// reported at the end.
fn run_shard(
    batch: Vec<ActionInstance>,
    shard: usize,
    stride: usize,
    config: &FleetConfig,
    obs: &mut dyn caex_obs::Observer,
) -> ShardOutput {
    let num_nodes = batch
        .iter()
        .flat_map(|inst| inst.nodes.iter())
        .map(|n| n.index() + 1)
        .max()
        .unwrap_or(0);
    // Same size as the instance itself, so this reuses the batch's buffer.
    let mut batch: Vec<Option<ActionInstance>> = batch.into_iter().map(Some).collect();
    let instance = |local: usize| local * stride + shard;

    let mut net_config = config.net.clone();
    net_config.seed = net_config
        .seed
        .wrapping_add(SHARD_SEED_STRIDE.wrapping_mul(shard as u64));
    let mut host = SimHost::bridged(net_config, num_nodes, SHARD_DELIVERY_CAP, Vec::new());

    let mut tracker = Tracker {
        node_owner: vec![NO_OWNER; num_nodes as usize],
        action_owner: IdMap::default(),
        live: (0..batch.len()).map(|_| None).collect(),
    };
    for (local, inst) in batch.iter().flatten().enumerate() {
        for &n in &inst.nodes {
            // Node ranges must be disjoint: one node serves one instance.
            let owner = &mut tracker.node_owner[n.index() as usize];
            assert!(
                *owner == NO_OWNER,
                "node {n} assigned to two instances in shard {shard}"
            );
            *owner = local as u32;
        }
    }

    let mut outcomes = Vec::with_capacity(batch.len());
    let mut pending: VecDeque<usize> = (0..batch.len()).collect();
    let mut active = 0usize;

    // Admission: fill free slots in arrival order. Steps are offsets
    // from admission time, so an instance admitted after its arrival
    // (all slots were busy) starts late — that wait is the queueing
    // delay the saturation study measures.
    macro_rules! admit_ready {
        () => {
            while active < config.capacity {
                let Some(local) = pending.pop_front() else { break };
                let inst = batch[local].as_mut().expect("a pending instance is in the batch");
                let start = inst.arrival.max(host.net.now());
                host.admit(&mut inst.script, inst.nodes.iter().copied(), start);
                for a in inst.action_range() {
                    tracker.action_owner.insert(ActionId::new(a), local);
                }
                tracker.live[local] = Some(Live { admitted: start, ..Live::default() });
                active += 1;
            }
        };
    }
    admit_ready!();

    // One fan-out for the whole shard when flame stacks are collected;
    // it borrows `flame` and `obs` until the loop ends.
    let mut flame = config.collect_flame.then(caex_obs::FlameBuilder::new);
    {
        let mut tee;
        let observer: &mut dyn caex_obs::Observer = match &mut flame {
            Some(flame) => {
                tee = caex_obs::Tee::new().with(flame).with(&mut *obs);
                &mut tee
            }
            None => &mut *obs,
        };
        while let Some((at, object)) = host.step(observer, &mut tracker) {
            let Some(l) = tracker.owner_of_node(object) else { continue };
            let (Some(slot), Some(inst)) = (tracker.live[l].as_mut(), batch[l].as_ref()) else {
                continue;
            };
            // Completion check for the instance that just made progress:
            // resolution committed, every handler it started has
            // finished, and all of its participants are back to normal.
            let done = slot.finished.is_none()
                && slot.committed.is_some()
                && slot.handlers_open == 0
                && inst.nodes.iter().all(|&n| host.is_normal(n));
            if done {
                slot.finished = Some(at);
                active -= 1;
            }
            if slot.finished.is_some() && host.retire(&inst.nodes) {
                let live = tracker.live[l].take();
                for a in inst.action_range() {
                    tracker.action_owner.remove(&ActionId::new(a));
                }
                outcomes.push(outcome(
                    inst,
                    instance(l),
                    shard,
                    live.as_ref(),
                    host.net.stats(),
                    config.law,
                ));
                batch[l] = None;
            }
            if done {
                admit_ready!();
            }
        }
    }
    obs.on_run_end(host.net.now());

    for (l, inst) in batch.iter().enumerate() {
        if let Some(inst) = inst {
            let live = tracker.live[l].as_ref();
            outcomes.push(outcome(inst, instance(l), shard, live, host.net.stats(), config.law));
        }
    }

    ShardOutput {
        outcomes,
        finished_at: host.net.now(),
        deadlocked: host.deadlocked(),
        hit_delivery_limit: host.hit_delivery_limit,
        folded: flame.map(|flame| flame.folded()),
        stats: host.net.into_stats(),
    }
}
