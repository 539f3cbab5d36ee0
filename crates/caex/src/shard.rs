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
//! All measured quantities are *virtual time*: worker threads give
//! wall-clock speedup, but reports are bit-identical for a given seed
//! regardless of the host's scheduling.

use crate::host::{SimHost, Sink, SHARD_DELIVERY_CAP};
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
        let script = scenario.script_for("an ActionInstance");
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
    /// §4.4 message law injected into the per-round metrics check,
    /// e.g. [`crate::analysis::messages_general`].
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
    /// The §4.4 prediction for the instance's rounds, when a law was
    /// injected and applicable.
    pub law_predicted: Option<u64>,
    /// Per-instance law verdict: `Some(true)` iff every resolution
    /// round of this instance matched the prediction.
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

    /// `true` iff the §4.4 law held on every instance it applied to.
    #[must_use]
    pub fn law_all_hold(&self) -> bool {
        self.outcomes.iter().all(|o| o.law_holds != Some(false))
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
/// assert!(report.law_all_hold());
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
        let mut per_shard: Vec<Vec<(usize, ActionInstance)>> =
            (0..shards).map(|_| Vec::new()).collect();
        for (i, inst) in instances.into_iter().enumerate() {
            per_shard[i % shards].push((i, inst));
        }

        let outputs: Vec<ShardOutput> = if shards == 1 {
            let batch = per_shard.pop().expect("one shard");
            vec![run_shard(batch, 0, &self.config, &mut ())]
        } else {
            std::thread::scope(|scope| {
                let handles: Vec<_> = per_shard
                    .into_iter()
                    .enumerate()
                    .map(|(s, batch)| {
                        let config = &self.config;
                        scope.spawn(move || run_shard(batch, s, config, &mut ()))
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
        let batch = instances.into_iter().enumerate().collect();
        let output = run_shard(batch, 0, &self.config, obs);
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

/// Tracking state for one admitted instance.
#[derive(Default)]
struct Live {
    admitted: SimTime,
    committed: Option<SimTime>,
    finished: Option<SimTime>,
    resolver: Option<NodeId>,
    resolved: Option<Exception>,
    handlers_open: u64,
}

/// A shard's view of its instances, fed by the host's steps. The
/// per-node table is dense: the shard's node ids are `< num_nodes`.
struct Tracker {
    /// node -> local slot in the batch.
    node_owner: Vec<Option<usize>>,
    /// action id -> local slot in the batch.
    action_owner: IdMap<ActionId, usize>,
    live: Vec<Option<Live>>,
}

impl Tracker {
    fn owner_of_node(&self, node: NodeId) -> Option<usize> {
        self.node_owner[node.index() as usize]
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
            Note::ResolutionCommitted {
                action,
                resolver,
                resolved,
                ..
            } => {
                if let Some(slot) = self.live_of_action(action) {
                    if slot.committed.is_none() {
                        slot.committed = Some(at);
                        slot.resolver = Some(resolver);
                        slot.resolved = Some(resolved);
                    }
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

/// Runs one shard to quiescence: interleave all assigned instances'
/// deliveries in virtual-time order, admitting instances into
/// `capacity` slots in arrival order.
fn run_shard(
    mut batch: Vec<(usize, ActionInstance)>,
    shard: usize,
    config: &FleetConfig,
    obs: &mut dyn caex_obs::Observer,
) -> ShardOutput {
    let num_nodes = batch
        .iter()
        .flat_map(|(_, inst)| inst.nodes.iter())
        .map(|n| n.index() + 1)
        .max()
        .unwrap_or(0);

    let mut net_config = config.net.clone();
    net_config.seed = net_config
        .seed
        .wrapping_add(SHARD_SEED_STRIDE.wrapping_mul(shard as u64));
    let mut host = SimHost::bridged(net_config, num_nodes, SHARD_DELIVERY_CAP, Vec::new());

    let mut metrics = match config.law {
        Some(law) => caex_obs::MetricsRegistry::new().with_law(law),
        None => caex_obs::MetricsRegistry::new(),
    };
    let mut flame = caex_obs::FlameBuilder::new();

    let mut tracker = Tracker {
        node_owner: vec![None; num_nodes as usize],
        action_owner: IdMap::default(),
        live: (0..batch.len()).map(|_| None).collect(),
    };
    for (local, (_, inst)) in batch.iter().enumerate() {
        for &n in &inst.nodes {
            // Node ranges must be disjoint: one node serves one instance.
            assert!(
                tracker.node_owner[n.index() as usize].replace(local).is_none(),
                "node {n} assigned to two instances in shard {shard}"
            );
        }
        for a in inst.action_range() {
            tracker.action_owner.insert(ActionId::new(a), local);
        }
    }

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
                let inst = &mut batch[local].1;
                let start = inst.arrival.max(host.net.now());
                host.admit(&mut inst.script, inst.nodes.iter().copied(), start);
                tracker.live[local] = Some(Live { admitted: start, ..Live::default() });
                active += 1;
            }
        };
    }
    admit_ready!();

    // One fan-out for the whole shard; it borrows `metrics`, `flame`
    // and `obs` until the loop ends.
    let mut tee = caex_obs::Tee::new().with(&mut metrics);
    if config.collect_flame {
        tee = tee.with(&mut flame);
    }
    let mut tee = tee.with(obs);
    while let Some((at, object)) = host.step(&mut tee, &mut tracker) {
        // Completion check for the instance that just made progress:
        // resolution committed, every handler it started has finished,
        // and all of its participants are back to normal.
        let Some(l) = tracker.owner_of_node(object) else { continue };
        let Some(slot) = tracker.live[l].as_mut() else { continue };
        if slot.finished.is_none()
            && slot.committed.is_some()
            && slot.handlers_open == 0
            && batch[l].1.nodes.iter().all(|&n| host.is_normal(n))
        {
            slot.finished = Some(at);
            active -= 1;
            admit_ready!();
        }
    }
    drop(tee);
    obs.on_run_end(host.net.now());

    // Per-instance law verdicts from the metrics registry's rounds.
    let mut law_predicted: Vec<Option<u64>> = vec![None; batch.len()];
    let mut law_holds: Vec<Option<bool>> = vec![None; batch.len()];
    for r in metrics.resolutions() {
        if let Some(&l) = tracker.action_owner.get(&r.action) {
            if let Some(pred) = r.predicted {
                *law_predicted[l].get_or_insert(0) += pred;
            }
            if let Some(holds) = r.law_holds {
                let verdict = law_holds[l].get_or_insert(true);
                *verdict = *verdict && holds;
            }
        }
    }

    let outcomes = batch
        .iter()
        .enumerate()
        .map(|(l, (global, inst))| {
            let slot = tracker.live[l].as_ref();
            let messages = inst
                .action_range()
                .map(|a| host.net.stats().action_counters(a).sent)
                .sum();
            ActionOutcome {
                instance: *global,
                shard,
                key: inst.key,
                arrival: inst.arrival,
                admitted: slot.map_or(inst.arrival, |s| s.admitted),
                committed: slot.and_then(|s| s.committed),
                finished: slot.and_then(|s| s.finished),
                resolver: slot.and_then(|s| s.resolver),
                resolved: slot.and_then(|s| s.resolved.clone()),
                messages,
                law_predicted: law_predicted[l],
                law_holds: law_holds[l],
                deadline: inst.deadline.map(|d| inst.arrival + d),
            }
        })
        .collect();

    ShardOutput {
        outcomes,
        finished_at: host.net.now(),
        deadlocked: host.deadlocked(),
        hit_delivery_limit: host.hit_delivery_limit,
        folded: config.collect_flame.then(|| flame.folded()),
        stats: host.net.into_stats(),
    }
}
