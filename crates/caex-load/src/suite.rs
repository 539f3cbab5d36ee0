//! The saturation study: offered load vs achieved throughput and tail
//! latency, for the paper's decentralized resolution engine against
//! the two baselines.
//!
//! Every cell of the study is open-loop: arrivals come from a seeded
//! [`ArrivalSpec`] schedule regardless of how the engine keeps up.
//! The unit of work is one **action instance** of the §4.4 general
//! workload with `N = 4`, `P = 2`, `Q = 1` — four participants, two
//! concurrent raisers, one nested action — whose per-instance message
//! cost the paper's law fixes at `(N−1)(2P+3Q+1) = 24`.
//!
//! Engines:
//!
//! - `sim` — the paper's §4.2 algorithm, multiplexed by
//!   [`caex::shard::FleetEngine`]: instances are sharded round-robin
//!   across workers and queue for `capacity` admission slots per
//!   shard, so queueing delay is part of the measured latency;
//! - `central` — the fixed-coordinator design ([`caex::central`],
//!   E18's baseline). It has no nested-action support, so its service
//!   time is measured once on the *flat* equivalent (`N = 4`, two
//!   raisers, 1 ms collection window) and offered load is then played
//!   through a deterministic queue replay with the same shard/slot
//!   discipline as the fleet;
//! - `cr` — the Campbell–Randell 1986 exception-tree baseline
//!   ([`caex::cr`]), measured and replayed the same way.
//!
//! Measuring baseline service once and replaying the queue is exact,
//! not an approximation: both baselines are deterministic under the
//! constant-latency default model, so every request would take the
//! same virtual service time the single run measures. The replay is
//! conservative *in their favour* — the flat workload omits the
//! nested-action abort/completion traffic the `sim` engine pays for.
//!
//! All quantities are virtual time: the study is bit-reproducible for
//! a given seed, which is what lets `BENCH_PR10.json` be pinned by a
//! test.

use crate::arrivals::ArrivalSpec;
use crate::hist::LogHistogram;
use caex::shard::{ActionInstance, FleetConfig, FleetEngine};
use caex::{analysis, central, cr, workloads};
use caex_net::{NetConfig, NodeId, SimTime};
use caex_obs::JsonValue;
use caex_tree::{chain_tree, ExceptionId};
use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::fmt;
use std::sync::Arc;

/// Participants per action instance.
pub(crate) const WORKLOAD_N: u32 = 4;
/// Concurrent raisers per instance.
pub(crate) const WORKLOAD_P: u32 = 2;
/// Nested actions per instance.
pub(crate) const WORKLOAD_Q: u32 = 1;
/// Actions declared per instance (the top-level one plus `Q` nested).
const ACTIONS_PER_INSTANCE: u32 = WORKLOAD_Q + 1;
/// The central baseline's collection window (E18's Table 16 value).
fn central_window() -> SimTime {
    SimTime::from_millis(1)
}

/// Which resolution engine serves the offered load.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// The paper's decentralized algorithm under the fleet engine.
    Sim,
    /// Fixed-coordinator baseline (measured service + queue replay).
    Central,
    /// Campbell–Randell 1986 baseline (measured service + queue replay).
    Cr,
}

impl Engine {
    /// Parses `sim`, `central` or `cr`.
    ///
    /// # Errors
    ///
    /// Returns a message naming the accepted values otherwise.
    pub fn parse(s: &str) -> Result<Engine, String> {
        match s {
            "sim" => Ok(Engine::Sim),
            "central" => Ok(Engine::Central),
            "cr" => Ok(Engine::Cr),
            other => Err(format!("unknown engine `{other}` (sim|central|cr)")),
        }
    }

    /// The canonical lowercase name.
    #[must_use]
    pub fn as_str(&self) -> &'static str {
        match self {
            Engine::Sim => "sim",
            Engine::Central => "central",
            Engine::Cr => "cr",
        }
    }

    /// All engines, in report order.
    #[must_use]
    pub fn all() -> [Engine; 3] {
        [Engine::Sim, Engine::Central, Engine::Cr]
    }
}

impl fmt::Display for Engine {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One load-generation run: the arrival process, how much of it, and
/// which engine at which concurrency serves it.
#[derive(Debug, Clone)]
pub struct LoadConfig {
    /// Engine under test.
    pub engine: Engine,
    /// Arrival process.
    pub arrivals: ArrivalSpec,
    /// Total action instances to generate.
    pub actions: usize,
    /// Worker shards (fleet) / shard groups (replay).
    pub shards: usize,
    /// Concurrent admission slots per shard.
    pub capacity: usize,
    /// Per-request latency budget, if any.
    pub deadline: Option<SimTime>,
    /// Seed for the arrival schedule and the network model.
    pub seed: u64,
    /// Collect folded flame-graph stacks (`sim` only).
    pub collect_flame: bool,
}

impl Default for LoadConfig {
    fn default() -> Self {
        LoadConfig {
            engine: Engine::Sim,
            arrivals: ArrivalSpec::Poisson { rate_per_sec: 1000.0 },
            actions: 200,
            shards: 1,
            capacity: 2,
            deadline: Some(SimTime::from_millis(20)),
            seed: 10,
            collect_flame: false,
        }
    }
}

/// What one load run measured.
#[derive(Debug)]
pub struct LoadOutcome {
    /// Offered rate, actions per virtual second.
    pub offered_per_sec: f64,
    /// Instances whose resolution committed.
    pub completed: usize,
    /// Committed instances over the makespan, per virtual second.
    pub achieved_per_sec: f64,
    /// Arrival-to-commit latency distribution, µs.
    pub hist: LogHistogram,
    /// Instances that blew their deadline (or never committed).
    pub deadline_misses: usize,
    /// §4.4 law verdict across all instances: `None` for baselines —
    /// the law describes the decentralized algorithm only — and for a
    /// fleet none of whose instances carries a verdict.
    pub law_holds: Option<bool>,
    /// Protocol messages per action instance.
    pub messages_per_action: u64,
    /// Virtual time the last shard went quiescent, µs.
    pub makespan_us: u64,
    /// Folded flame-graph stacks, when requested.
    pub folded: Option<String>,
    /// Objects stuck mid-resolution at quiescence (0 on healthy runs).
    pub deadlocked: usize,
}

impl LoadOutcome {
    /// Deadline misses over generated actions, in `[0, 1]`.
    #[must_use]
    #[allow(clippy::cast_precision_loss)]
    pub(crate) fn miss_rate(&self, actions: usize) -> f64 {
        if actions == 0 {
            return 0.0;
        }
        self.deadline_misses as f64 / actions as f64
    }

    /// The `--assert-law` check of a run of `actions` actions: the law
    /// held (a missing verdict fails), every action committed and
    /// nothing deadlocked.
    ///
    /// # Errors
    ///
    /// Says which of the three failed.
    pub fn check_law(&self, actions: usize) -> Result<(), String> {
        match self.law_holds {
            Some(true) => {}
            Some(false) => return Err("§4.4 law violated under load".into()),
            None => return Err("no §4.4 verdict: no instance ran a round the law covers".into()),
        }
        if self.completed != actions || self.deadlocked != 0 {
            return Err(format!(
                "{} of {actions} actions committed, {} deadlocked",
                self.completed, self.deadlocked
            ));
        }
        Ok(())
    }
}

/// Runs one load cell against the configured engine.
///
/// # Panics
///
/// Panics on zero `shards`/`capacity`/`actions`, or if flame
/// collection is requested for a baseline engine.
#[must_use]
#[allow(clippy::cast_precision_loss)]
pub fn run_load(config: &LoadConfig) -> LoadOutcome {
    assert!(config.actions > 0, "need at least one action");
    let arrivals = config.arrivals.schedule(config.actions, config.seed);
    match config.engine {
        Engine::Sim => run_fleet(config, &arrivals),
        Engine::Central => {
            assert!(!config.collect_flame, "flame stacks need the sim engine");
            let (service_us, messages) = central_service(config.seed);
            replay(config, &arrivals, service_us, messages)
        }
        Engine::Cr => {
            assert!(!config.collect_flame, "flame stacks need the sim engine");
            let (service_us, messages) = cr_service(config.seed);
            replay(config, &arrivals, service_us, messages)
        }
    }
}

/// The sim path: relocate one §4.4 instance per arrival onto private
/// node/action ranges and let the fleet engine multiplex them.
#[allow(clippy::cast_precision_loss, clippy::cast_possible_truncation)]
fn run_fleet(config: &LoadConfig, arrivals: &[SimTime]) -> LoadOutcome {
    let instances: Vec<ActionInstance> = arrivals
        .iter()
        .enumerate()
        .map(|(i, &at)| {
            let i = i as u32;
            let w = workloads::general_at(
                WORKLOAD_N,
                WORKLOAD_P,
                WORKLOAD_Q,
                i * WORKLOAD_N,
                i * ACTIONS_PER_INSTANCE,
                NetConfig::default(),
            );
            let inst = ActionInstance::from_scenario(w.scenario, at);
            match config.deadline {
                Some(d) => inst.with_deadline(d),
                None => inst,
            }
        })
        .collect();
    let fleet = FleetConfig {
        shards: config.shards,
        capacity: config.capacity,
        net: NetConfig::default().with_seed(config.seed),
        law: Some(analysis::messages_general),
        collect_flame: config.collect_flame,
        ..Default::default()
    };
    let report = FleetEngine::new(fleet).run(instances);
    let mut hist = LogHistogram::new();
    for us in report.latencies_us() {
        hist.record(us);
    }
    LoadOutcome {
        offered_per_sec: config.arrivals.offered_per_sec(),
        completed: report.committed_count(),
        achieved_per_sec: report.throughput_per_sec(),
        deadline_misses: report.deadline_misses(),
        law_holds: report.law_all_hold(),
        messages_per_action: report.outcomes.iter().map(|o| o.messages).max().unwrap_or(0),
        makespan_us: report.makespan().as_micros(),
        deadlocked: report.deadlocked.len(),
        folded: report.folded,
        hist,
    }
}

/// Measures the central baseline's service time once, on the flat
/// equivalent of the workload (no nested actions: `N = 4`, raisers at
/// the two highest-numbered objects, the E18 collection window).
fn central_service(seed: u64) -> (u64, u64) {
    let tree = Arc::new(chain_tree(WORKLOAD_N));
    let raises = flat_raises();
    let report = central::run(
        WORKLOAD_N,
        tree,
        NodeId::new(0),
        &raises,
        central_window(),
        NetConfig::default().with_seed(seed),
    );
    assert!(report.committed.is_some(), "central baseline must commit");
    (report.finished_at.as_micros(), report.total_messages())
}

/// Measures the Campbell–Randell baseline's service time once, on the
/// same flat equivalent (interleaved reduced trees, two concurrent
/// raisers).
fn cr_service(seed: u64) -> (u64, u64) {
    let tree = Arc::new(chain_tree(WORKLOAD_N));
    let reduced = cr::interleaved_parties(&tree, WORKLOAD_N, WORKLOAD_N);
    let raises = flat_raises();
    let report = cr::run(
        WORKLOAD_N,
        tree,
        reduced,
        &raises,
        NetConfig::default().with_seed(seed),
    );
    (report.finished_at.as_micros(), report.total_messages())
}

/// The flat workload's raise set: the two highest-numbered objects
/// raise distinct exceptions concurrently, mirroring `P = 2` raisers
/// of [`workloads::general`].
fn flat_raises() -> [(NodeId, ExceptionId); WORKLOAD_P as usize] {
    [
        (NodeId::new(WORKLOAD_N - 2), ExceptionId::new(WORKLOAD_N - 2)),
        (NodeId::new(WORKLOAD_N - 1), ExceptionId::new(WORKLOAD_N - 1)),
    ]
}

/// Plays an arrival schedule through `shards × capacity` deterministic
/// servers with fixed per-request service time, using the fleet's
/// discipline: instance `i` goes to shard group `i % shards`, then to
/// the earliest-free slot in that group. Exact for deterministic
/// baselines; see the module docs.
#[allow(clippy::cast_precision_loss)]
fn replay(
    config: &LoadConfig,
    arrivals: &[SimTime],
    service_us: u64,
    messages: u64,
) -> LoadOutcome {
    assert!(config.shards >= 1 && config.capacity >= 1);
    let mut servers: Vec<BinaryHeap<Reverse<u64>>> = (0..config.shards)
        .map(|_| (0..config.capacity).map(|_| Reverse(0)).collect())
        .collect();
    let mut hist = LogHistogram::new();
    let mut misses = 0usize;
    let mut makespan = 0u64;
    for (i, &at) in arrivals.iter().enumerate() {
        let group = &mut servers[i % config.shards];
        let Reverse(free) = group.pop().expect("capacity >= 1");
        let start = free.max(at.as_micros());
        let done = start + service_us;
        group.push(Reverse(done));
        let latency = done - at.as_micros();
        hist.record(latency);
        if config.deadline.is_some_and(|d| latency > d.as_micros()) {
            misses += 1;
        }
        makespan = makespan.max(done);
    }
    let completed = arrivals.len();
    LoadOutcome {
        offered_per_sec: config.arrivals.offered_per_sec(),
        completed,
        achieved_per_sec: if makespan == 0 {
            0.0
        } else {
            completed as f64 * 1_000_000.0 / makespan as f64
        },
        deadline_misses: misses,
        law_holds: None,
        messages_per_action: messages,
        makespan_us: makespan,
        deadlocked: 0,
        folded: None,
        hist,
    }
}

// ---------------------------------------------------------------------
// The pinned PR10 study.
// ---------------------------------------------------------------------

/// Seed of the pinned study.
pub const BENCH_SEED: u64 = 10;
/// Actions generated per cell.
pub(crate) const BENCH_ACTIONS: usize = 240;
/// Per-request deadline of the pinned study.
pub(crate) const BENCH_DEADLINE_MS: u64 = 20;
/// Offered Poisson rates swept, actions per virtual second. The
/// single-server service times are roughly 200 µs (`sim`), 410 µs
/// (`cr`) and 1.2 ms (`central`, window-dominated), so 800/s is
/// comfortable for every engine at every concurrency, 3200/s
/// saturates `central` at `(1, 2)`, and 12800/s pushes all three
/// engines past their lowest-concurrency capacity.
pub(crate) const BENCH_RATES: [f64; 3] = [800.0, 3200.0, 12_800.0];
/// Concurrency levels swept, as `(shards, capacity)`.
pub(crate) const BENCH_CONCURRENCY: [(usize, usize); 3] = [(1, 2), (2, 4), (4, 8)];

/// One cell of the pinned study: its configuration plus what it
/// measured.
#[derive(Debug)]
pub struct SaturationCell {
    /// The cell's configuration.
    pub config: LoadConfig,
    /// The cell's measurements.
    pub outcome: LoadOutcome,
}

/// Runs the full PR10 saturation study: 3 engines × 3 concurrency
/// levels × 3 offered rates, 240 Poisson arrivals per cell, 20 ms
/// deadline, seed 10.
#[must_use]
pub fn bench_pr10() -> Vec<SaturationCell> {
    bench_pr10_seeded(BENCH_SEED)
}

/// [`bench_pr10`] at an arbitrary seed (the pinned document uses
/// [`BENCH_SEED`]).
#[must_use]
pub fn bench_pr10_seeded(seed: u64) -> Vec<SaturationCell> {
    let mut cells = Vec::new();
    for engine in Engine::all() {
        for &(shards, capacity) in &BENCH_CONCURRENCY {
            for &rate in &BENCH_RATES {
                let config = LoadConfig {
                    engine,
                    arrivals: ArrivalSpec::Poisson { rate_per_sec: rate },
                    actions: BENCH_ACTIONS,
                    shards,
                    capacity,
                    deadline: Some(SimTime::from_millis(BENCH_DEADLINE_MS)),
                    seed,
                    collect_flame: false,
                };
                let outcome = run_load(&config);
                cells.push(SaturationCell { config, outcome });
            }
        }
    }
    cells
}

/// Rounds to 3 decimals so the pinned JSON stays tidy.
fn round3(x: f64) -> f64 {
    (x * 1000.0).round() / 1000.0
}

/// Renders the study as the `BENCH_PR10.json` document.
#[must_use]
pub fn bench_pr10_json(cells: &[SaturationCell]) -> JsonValue {
    let rows: Vec<JsonValue> = cells
        .iter()
        .map(|cell| {
            let c = &cell.config;
            let o = &cell.outcome;
            JsonValue::Obj(vec![
                ("engine".into(), JsonValue::str(c.engine.as_str())),
                ("shards".into(), JsonValue::num(c.shards as u64)),
                ("capacity".into(), JsonValue::num(c.capacity as u64)),
                ("arrivals".into(), JsonValue::str(c.arrivals.to_string())),
                ("offered_per_sec".into(), JsonValue::Num(round3(o.offered_per_sec))),
                ("actions".into(), JsonValue::num(c.actions as u64)),
                ("completed".into(), JsonValue::num(o.completed as u64)),
                ("achieved_per_sec".into(), JsonValue::Num(round3(o.achieved_per_sec))),
                ("p50_us".into(), JsonValue::num(o.hist.p50())),
                ("p99_us".into(), JsonValue::num(o.hist.p99())),
                ("p999_us".into(), JsonValue::num(o.hist.p999())),
                ("max_us".into(), JsonValue::num(o.hist.max())),
                ("deadline_misses".into(), JsonValue::num(o.deadline_misses as u64)),
                ("miss_rate".into(), JsonValue::Num(round3(o.miss_rate(c.actions)))),
                (
                    "law_holds".into(),
                    match o.law_holds {
                        Some(b) => JsonValue::Bool(b),
                        None => JsonValue::Null,
                    },
                ),
                ("messages_per_action".into(), JsonValue::num(o.messages_per_action)),
                ("makespan_us".into(), JsonValue::num(o.makespan_us)),
            ])
        })
        .collect();
    JsonValue::Obj(vec![
        ("bench".into(), JsonValue::str("PR10")),
        ("seed".into(), JsonValue::num(BENCH_SEED)),
        ("actions_per_cell".into(), JsonValue::num(BENCH_ACTIONS as u64)),
        ("deadline_ms".into(), JsonValue::num(BENCH_DEADLINE_MS)),
        (
            "workload".into(),
            JsonValue::Obj(vec![
                ("n".into(), JsonValue::num(u64::from(WORKLOAD_N))),
                ("p".into(), JsonValue::num(u64::from(WORKLOAD_P))),
                ("q".into(), JsonValue::num(u64::from(WORKLOAD_Q))),
                (
                    "law_messages".into(),
                    JsonValue::num(analysis::messages_general(
                        u64::from(WORKLOAD_N),
                        u64::from(WORKLOAD_P),
                        u64::from(WORKLOAD_Q),
                    )),
                ),
            ]),
        ),
        ("rows".into(), JsonValue::Arr(rows)),
    ])
}

/// Structurally validates a `BENCH_PR10.json` document: the workload
/// law constant, every row's field sanity (quantile ordering, rates,
/// counts), all three engines present at three or more concurrency
/// levels and offered rates, and — the acceptance bar — the §4.4 law
/// holding with exactly `law_messages` protocol messages per action on
/// every `sim` row.
///
/// # Errors
///
/// Returns a message naming the first offending row/field.
#[allow(clippy::too_many_lines)]
pub fn validate_bench_pr10(doc: &JsonValue) -> Result<usize, String> {
    if doc.get("bench").and_then(JsonValue::as_str) != Some("PR10") {
        return Err("bench tag is not PR10".into());
    }
    let workload = doc.get("workload").ok_or("missing workload")?;
    let field = |obj: &JsonValue, key: &str| -> Result<u64, String> {
        obj.get(key)
            .and_then(JsonValue::as_u64)
            .ok_or_else(|| format!("missing numeric field `{key}`"))
    };
    let n = field(workload, "n")?;
    let p = field(workload, "p")?;
    let q = field(workload, "q")?;
    let law = field(workload, "law_messages")?;
    if law != analysis::messages_general(n, p, q) {
        return Err(format!(
            "law_messages {law} != (N-1)(2P+3Q+1) = {}",
            analysis::messages_general(n, p, q)
        ));
    }
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .ok_or("missing rows array")?;
    if rows.is_empty() {
        return Err("rows array is empty".into());
    }
    let mut engines: Vec<&str> = Vec::new();
    let mut concurrency: Vec<(u64, u64)> = Vec::new();
    let mut rates: Vec<u64> = Vec::new();
    for (i, row) in rows.iter().enumerate() {
        let ctx = |msg: String| format!("row {i}: {msg}");
        let engine = row
            .get("engine")
            .and_then(JsonValue::as_str)
            .ok_or_else(|| ctx("missing engine".into()))?;
        let shards = field(row, "shards").map_err(ctx)?;
        let capacity = field(row, "capacity").map_err(ctx)?;
        let actions = field(row, "actions").map_err(ctx)?;
        let completed = field(row, "completed").map_err(ctx)?;
        let p50 = field(row, "p50_us").map_err(ctx)?;
        let p99 = field(row, "p99_us").map_err(ctx)?;
        let p999 = field(row, "p999_us").map_err(ctx)?;
        let max = field(row, "max_us").map_err(ctx)?;
        let misses = field(row, "deadline_misses").map_err(ctx)?;
        let offered = row
            .get("offered_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| ctx("missing offered_per_sec".into()))?;
        let achieved = row
            .get("achieved_per_sec")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| ctx("missing achieved_per_sec".into()))?;
        let miss_rate = row
            .get("miss_rate")
            .and_then(JsonValue::as_f64)
            .ok_or_else(|| ctx("missing miss_rate".into()))?;
        if completed > actions {
            return Err(ctx(format!("completed {completed} > actions {actions}")));
        }
        if completed == 0 || achieved <= 0.0 {
            return Err(ctx("no throughput".into()));
        }
        if !(p50 <= p99 && p99 <= p999 && p999 <= max) {
            return Err(ctx(format!(
                "quantiles out of order: {p50}/{p99}/{p999}/{max}"
            )));
        }
        if misses > actions || !(0.0..=1.0).contains(&miss_rate) {
            return Err(ctx("bad deadline-miss accounting".into()));
        }
        if offered <= 0.0 {
            return Err(ctx("offered rate not positive".into()));
        }
        if engine == "sim" {
            if row.get("law_holds").and_then(JsonValue::as_bool) != Some(true) {
                return Err(ctx("§4.4 law does not hold".into()));
            }
            let messages = field(row, "messages_per_action").map_err(ctx)?;
            if messages != law {
                return Err(ctx(format!("messages_per_action {messages} != law {law}")));
            }
        }
        if !engines.contains(&engine) {
            engines.push(engine);
        }
        if !concurrency.contains(&(shards, capacity)) {
            concurrency.push((shards, capacity));
        }
        #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
        let rate_key = offered.round() as u64;
        if !rates.contains(&rate_key) {
            rates.push(rate_key);
        }
    }
    for needed in ["sim", "central", "cr"] {
        if !engines.contains(&needed) {
            return Err(format!("engine `{needed}` missing from the study"));
        }
    }
    if concurrency.len() < 3 {
        return Err(format!(
            "only {} concurrency levels (need >= 3)",
            concurrency.len()
        ));
    }
    if rates.len() < 3 {
        return Err(format!("only {} offered rates (need >= 3)", rates.len()));
    }
    Ok(rows.len())
}

/// Renders a `BENCH_PR10.json` document as an aligned text table (one
/// row per cell), for `caex-load saturation` and
/// `tables --load-json` output.
///
/// # Panics
///
/// Panics if the document does not carry a `rows` array of objects —
/// validate first.
#[must_use]
pub fn render_saturation_table(doc: &JsonValue) -> String {
    let rows = doc
        .get("rows")
        .and_then(JsonValue::as_array)
        .expect("validated document has rows");
    let mut body: Vec<Vec<String>> = Vec::new();
    for row in rows {
        let s = |k: &str| {
            row.get(k)
                .map(std::string::ToString::to_string)
                .unwrap_or_default()
        };
        body.push(vec![
            row.get("engine")
                .and_then(JsonValue::as_str)
                .unwrap_or("?")
                .to_owned(),
            format!("{}x{}", s("shards"), s("capacity")),
            s("offered_per_sec"),
            s("achieved_per_sec"),
            s("p50_us"),
            s("p99_us"),
            s("p999_us"),
            s("miss_rate"),
            s("messages_per_action"),
        ]);
    }
    let header = [
        "engine", "workers", "offered/s", "achieved/s", "p50 us", "p99 us", "p999 us",
        "miss rate", "msgs/action",
    ];
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in &body {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = String::from(
        "Saturation study (open-loop Poisson arrivals, 240 actions/cell, 20 ms deadline)\n",
    );
    let line = |cells: &[String], widths: &[usize]| {
        let mut s = String::new();
        for (i, cell) in cells.iter().enumerate() {
            if i > 0 {
                s.push_str("  ");
            }
            s.push_str(&format!("{cell:>w$}", w = widths[i]));
        }
        s.push('\n');
        s
    };
    let header: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&line(&header, &widths));
    for row in &body {
        out.push_str(&line(row, &widths));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A fleet run without the law carries no verdict, and the fleet's
    /// verdict is `None` instead of a pass; with the law it is
    /// `Some(true)`, and so is the load cell's.
    #[test]
    fn a_fleet_without_verdicts_has_no_law_verdict() {
        let run = |law| {
            let instances = (0..4u32)
                .map(|i| {
                    let w = workloads::general_at(4, 2, 1, i * 4, i * 2, NetConfig::default());
                    ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i)))
                })
                .collect();
            let config = FleetConfig { law, ..FleetConfig::default() };
            FleetEngine::new(config).run(instances)
        };
        let without = run(None);
        assert!(without.outcomes.iter().all(|o| o.law_holds.is_none()));
        assert_eq!(without.law_all_hold(), None, "an empty set of verdicts is no pass");
        assert_eq!(run(Some(analysis::messages_general)).law_all_hold(), Some(true));
    }
}
