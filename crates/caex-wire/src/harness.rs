//! Multi-process orchestration: one OS process per participant, real
//! sockets in between, and the paper's laws asserted against what
//! actually crossed the wire.
//!
//! The coordinator binds a line-based *rendezvous* listener and spawns
//! one `caex-wire --role participant` child per node. Each child binds
//! its own mesh listener **first**, then reports `"<id> <addr>\n"` to
//! the rendezvous and blocks until the coordinator answers with the
//! full address map — so by the time any process starts dialing, every
//! listener already exists and mesh formation has no port races. After
//! the [`crate::wire::WirePort::barrier`], each child takes its
//! participant and its steps from the zero-clamped script
//! ([`caex::Script::participant`], the set-up every host shares), plays
//! them through [`caex::drive::drive_node`] (every event, the failure
//! detector's reports included, applied through
//! [`caex::ObsBridge::handle`], the observed step all hosts share,
//! stamped with wall-clock microseconds) and prints a single
//! `CAEX-WIRE-REPORT {json}` line; the coordinator aggregates those,
//! optionally replays the merged observability streams through the
//! [`caex_obs::Watchdog`], and checks the run against the §4.4 closed
//! form and the simulator baseline (messages, agreed exception,
//! elected resolver, raised set) — message counts measured from real
//! socket traffic, not simulated deliveries.
//!
//! Crash-injection runs (`--crash <id>`) suppress the victim's script
//! entirely — it joins the mesh and the barrier, then either
//! `exit(2)`s (connection-reset detection) or `SIGSTOP`s itself
//! (freezing its heartbeat writers, forcing the genuine
//! heartbeat-timeout path). Because the victim is a *declared*
//! participant, the resolver still awaits its ACK; only the failure
//! detector's deserter report lets resolution complete, which is
//! exactly the §4.2 behaviour under desertion the paper calls for.

use crate::scenario::{SimBaseline, WireScenario};
use crate::wire::{WireAddr, WireBound, WireConfig, WirePort};
use caex::drive::drive_node;
use caex::obs::wall_stamp;
use caex::{Note, ObsBridge, Script};
use caex_net::NodeId;
use caex_obs::json::{self, JsonValue};
use caex_obs::{causal, ObsEvent, Observer, TcpExporter, Watchdog};
use caex_tree::ExceptionId;
use std::collections::{BTreeMap, BTreeSet};
use std::io::{BufRead, BufReader, Write};
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::path::PathBuf;
use std::process::{Child, Command, Stdio};
use std::thread;
use std::time::{Duration, Instant};

/// Marker prefix of the one report line each participant prints.
pub(crate) const REPORT_PREFIX: &str = "CAEX-WIRE-REPORT ";
/// Marker prefix of the coordinator's summary line.
pub const SUMMARY_PREFIX: &str = "CAEX-WIRE-SUMMARY ";

/// Which socket family carries the mesh.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Transport {
    /// Localhost TCP (one listener per node, OS-assigned ports).
    Tcp,
    /// Unix-domain sockets under a spool directory.
    Unix,
}

impl std::str::FromStr for Transport {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "tcp" => Ok(Transport::Tcp),
            "unix" => Ok(Transport::Unix),
            other => Err(format!("unknown transport `{other}` (want tcp or unix)")),
        }
    }
}

/// How an injected crash takes the victim down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashMode {
    /// `process::exit(2)`: sockets close, peers see resets/EOF.
    Exit,
    /// Self-`SIGSTOP`: the process freezes with sockets open, so only
    /// the heartbeat timeout can expose it.
    Stop,
}

impl std::str::FromStr for CrashMode {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "exit" => Ok(CrashMode::Exit),
            "stop" => Ok(CrashMode::Stop),
            other => Err(format!("unknown crash mode `{other}` (want exit or stop)")),
        }
    }
}

/// *When* an injected crash takes the victim down.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CrashPoint {
    /// A fixed delay after the barrier, with the victim's script
    /// suppressed — the victim is a passive declared participant whose
    /// silence the resolver must survive (the original crash model).
    Barrier,
    /// The victim plays its script normally and dies the instant its
    /// state machine produces a `Commit` broadcast — i.e. the *elected
    /// resolver* crashes mid-resolution, after collecting ACKs but
    /// before any commit reaches a peer. Survivors must re-elect and
    /// finish resolution themselves (§4.2 failover).
    Commit,
}

impl std::str::FromStr for CrashPoint {
    type Err = String;

    fn from_str(s: &str) -> Result<Self, Self::Err> {
        match s {
            "barrier" => Ok(CrashPoint::Barrier),
            "commit" => Ok(CrashPoint::Commit),
            other => Err(format!("unknown crash point `{other}` (want barrier or commit)")),
        }
    }
}

/// Takes this process down in the requested way, from wherever in the
/// drive loop it is called. `Stop` sends ourselves `SIGSTOP` via
/// `kill(1)` and *returns after `SIGCONT`* — callers resume exactly
/// where they froze, which is what turns a stopped commit-point victim
/// into a zombie resolver flushing stale `Commit`s on resume.
fn crash_now(mode: CrashMode) {
    match mode {
        CrashMode::Exit => std::process::exit(2),
        CrashMode::Stop => {
            // Freeze in place: writer threads stop mid-flight,
            // heartbeats cease, sockets stay open — only the
            // peers' heartbeat timeout can expose us.
            let pid = std::process::id().to_string();
            let stopped = Command::new("kill").args(["-STOP", &pid]).status();
            if stopped.is_err() {
                std::process::exit(2);
            }
        }
    }
}

/// Everything a participant process needs to run its node.
#[derive(Debug, Clone)]
pub struct ParticipantOptions {
    /// This node.
    pub id: NodeId,
    /// Scenario spec (`example1`, `example2`, `general:n,p,q`).
    pub scenario: String,
    /// Socket family for the mesh.
    pub transport: Transport,
    /// Spool directory for Unix-domain sockets.
    pub sock_dir: PathBuf,
    /// The coordinator's rendezvous address.
    pub rendezvous: SocketAddr,
    /// Observability collector to stream `ObsEvent`s to, if any.
    pub obs: Option<SocketAddr>,
    /// Transport tuning.
    pub config: WireConfig,
    /// Drive-loop idle timeout.
    pub idle_timeout: Duration,
    /// Crash this long after the barrier (the victim's script is
    /// suppressed).
    pub crash_after: Option<Duration>,
    /// How to crash.
    pub crash_mode: CrashMode,
    /// When to crash: [`CrashPoint::Barrier`] (timer, script
    /// suppressed) or [`CrashPoint::Commit`] (script plays, die at the
    /// commit broadcast). Only consulted when `crash_after` is set.
    pub crash_point: CrashPoint,
    /// Transient-partition victim: `SIGSTOP` self right after the
    /// barrier (script *not* suppressed, sockets open) and resume on
    /// the coordinator's `SIGCONT` — the healed-partition experiment.
    pub partition_hold: bool,
}

/// What one node did, as printed in its `CAEX-WIRE-REPORT` line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct NodeReport {
    /// The node.
    pub id: u32,
    /// Protocol messages this node pushed onto the wire.
    pub sent: u64,
    /// Protocol messages delivered into its drive loop.
    pub delivered: u64,
    /// Messages dropped (undeliverable or drained at exit).
    pub dropped: u64,
    /// Undelivered messages drained from the inbox at exit.
    pub drained: u64,
    /// Deserter reports folded into the protocol.
    pub desertions: u64,
    /// Peers this node excluded as deserters.
    pub deserters: Vec<u32>,
    /// `(action, exception)` pairs whose handlers started here.
    pub handled: Vec<(u32, u32)>,
    /// Resolutions this node committed as the elected resolver:
    /// `(action, raised exception ids, ascending)`.
    pub committed: Vec<(u32, Vec<u32>)>,
    /// Per-peer clock-skew estimates `(peer, min(recv − sent) µs)` —
    /// floor one-way delay plus the peer's clock offset relative to
    /// this process (see `WirePort::skew_estimates`).
    pub skew: Vec<(u32, i64)>,
}

impl NodeReport {
    fn to_json(&self) -> JsonValue {
        let num = |n: u32| JsonValue::num(u64::from(n));
        let nums = |ns: &[u32]| JsonValue::Arr(ns.iter().map(|n| num(*n)).collect());
        let pair = |a: (&str, JsonValue), b: (&str, JsonValue)| {
            JsonValue::Obj(vec![(a.0.into(), a.1), (b.0.into(), b.1)])
        };
        let handled = self
            .handled
            .iter()
            .map(|(a, e)| pair(("action", num(*a)), ("exc", num(*e))));
        let committed = self
            .committed
            .iter()
            .map(|(a, raised)| pair(("action", num(*a)), ("raised", nums(raised))));
        #[allow(clippy::cast_precision_loss)] // µs offsets stay far below 2^53
        let skew = self
            .skew
            .iter()
            .map(|(peer, us)| pair(("peer", num(*peer)), ("us", JsonValue::Num(*us as f64))));
        JsonValue::Obj(vec![
            ("id".into(), num(self.id)),
            ("sent".into(), JsonValue::num(self.sent)),
            ("delivered".into(), JsonValue::num(self.delivered)),
            ("dropped".into(), JsonValue::num(self.dropped)),
            ("drained".into(), JsonValue::num(self.drained)),
            ("desertions".into(), JsonValue::num(self.desertions)),
            ("deserters".into(), nums(&self.deserters)),
            ("handled".into(), JsonValue::Arr(handled.collect())),
            ("committed".into(), JsonValue::Arr(committed.collect())),
            ("skew".into(), JsonValue::Arr(skew.collect())),
        ])
    }

    fn from_json(v: &JsonValue) -> Result<NodeReport, String> {
        fn u32_of(x: Option<&JsonValue>, k: &str) -> Result<u32, String> {
            x.and_then(JsonValue::as_u64)
                .and_then(|n| u32::try_from(n).ok())
                .ok_or_else(|| format!("report: bad or missing number `{k}`"))
        }
        fn num(v: &JsonValue, k: &str) -> Result<u32, String> {
            u32_of(v.get(k), k)
        }
        fn array<'a>(v: &'a JsonValue, k: &str) -> Result<&'a [JsonValue], String> {
            v.get(k)
                .and_then(JsonValue::as_array)
                .ok_or_else(|| format!("report missing array `{k}`"))
        }
        fn list(v: &JsonValue, k: &str) -> Result<Vec<u32>, String> {
            array(v, k)?.iter().map(|x| u32_of(Some(x), k)).collect()
        }
        let field = |k: &str| {
            v.get(k)
                .and_then(JsonValue::as_u64)
                .ok_or_else(|| format!("report missing numeric `{k}`"))
        };
        let handled = array(v, "handled")?
            .iter()
            .map(|h| Ok((num(h, "action")?, num(h, "exc")?)))
            .collect::<Result<Vec<_>, String>>()?;
        let committed = array(v, "committed")?
            .iter()
            .map(|c| Ok((num(c, "action")?, list(c, "raised")?)))
            .collect::<Result<Vec<_>, String>>()?;
        // Absent in pre-v2 report lines; default to no estimates.
        let skew = array(v, "skew")
            .unwrap_or(&[])
            .iter()
            .map(|s| {
                #[allow(clippy::cast_possible_truncation)] // µs offsets fit i64 exactly
                let us = s
                    .get("us")
                    .and_then(JsonValue::as_f64)
                    .map(|f| f as i64)
                    .ok_or("bad skew entry `us`")?;
                Ok((num(s, "peer")?, us))
            })
            .collect::<Result<Vec<_>, String>>()?;
        Ok(NodeReport {
            id: num(v, "id")?,
            sent: field("sent")?,
            delivered: field("delivered")?,
            dropped: field("dropped")?,
            drained: field("drained")?,
            desertions: field("desertions")?,
            deserters: list(v, "deserters")?,
            handled,
            committed,
            skew,
        })
    }
}

/// The coordinator's verdict over a whole multi-process run.
#[derive(Debug)]
pub struct RunSummary {
    /// Scenario spec.
    pub scenario: String,
    /// Mesh size (spawned processes).
    pub num_nodes: u32,
    /// Protocol messages that crossed real sockets (sum over nodes).
    pub total_sent: u64,
    /// The §4.4 closed-form count, when the workload has one.
    pub expected_messages: Option<u64>,
    /// What the simulator sent for the same spec.
    pub sim_messages: u64,
    /// The exception the wire run resolved to, if any.
    pub resolved: Option<u32>,
    /// The exception the simulator resolved to, if any.
    pub sim_resolved: Option<u32>,
    /// Nodes reported as deserters by any survivor.
    pub deserters: Vec<u32>,
    /// Watchdog violations over the merged observability streams.
    pub watchdog_violations: Vec<String>,
    /// Per-node reports, in node order (crashed nodes are absent).
    pub reports: Vec<NodeReport>,
    /// Assertion failures; empty means the run checked out.
    pub failures: Vec<String>,
}

impl RunSummary {
    /// `true` iff every assertion held.
    #[must_use]
    pub fn ok(&self) -> bool {
        self.failures.is_empty()
    }

    /// The summary as one JSON object (the `CAEX-WIRE-SUMMARY` body).
    #[must_use]
    pub fn to_json(&self) -> JsonValue {
        let opt = |o: Option<u64>| o.map_or(JsonValue::Null, JsonValue::num);
        JsonValue::Obj(vec![
            ("scenario".into(), JsonValue::str(self.scenario.clone())),
            ("num_nodes".into(), JsonValue::num(u64::from(self.num_nodes))),
            ("total_sent".into(), JsonValue::num(self.total_sent)),
            ("expected_messages".into(), opt(self.expected_messages)),
            ("sim_messages".into(), JsonValue::num(self.sim_messages)),
            ("resolved".into(), opt(self.resolved.map(u64::from))),
            ("sim_resolved".into(), opt(self.sim_resolved.map(u64::from))),
            (
                "deserters".into(),
                JsonValue::Arr(self.deserters.iter().map(|d| JsonValue::num(u64::from(*d))).collect()),
            ),
            (
                "watchdog_violations".into(),
                JsonValue::Arr(
                    self.watchdog_violations
                        .iter()
                        .map(JsonValue::str)
                        .collect(),
                ),
            ),
            (
                "failures".into(),
                JsonValue::Arr(self.failures.iter().map(JsonValue::str).collect()),
            ),
            ("ok".into(), JsonValue::Bool(self.ok())),
        ])
    }
}

/// The mesh address this node should bind, before the OS fills in
/// ephemeral details.
fn bind_addr(transport: Transport, sock_dir: &std::path::Path, id: NodeId) -> WireAddr {
    match transport {
        Transport::Tcp => WireAddr::Tcp(SocketAddr::from(([127, 0, 0, 1], 0))),
        Transport::Unix => WireAddr::Unix(sock_dir.join(format!("caex-wire-{}.sock", id.index()))),
    }
}

/// Exchanges this node's bound address for the full map via the
/// coordinator's rendezvous: send `"<id> <addr>\n"`, read back one
/// line of `num_nodes` addresses in node order.
fn rendezvous_exchange(
    rendezvous: SocketAddr,
    id: NodeId,
    local: &WireAddr,
) -> Result<Vec<WireAddr>, String> {
    let mut stream = None;
    for attempt in 0..10 {
        match TcpStream::connect_timeout(&rendezvous, Duration::from_secs(2)) {
            Ok(s) => {
                stream = Some(s);
                break;
            }
            Err(e) if attempt == 9 => return Err(format!("rendezvous connect: {e}")),
            Err(_) => thread::sleep(Duration::from_millis(30)),
        }
    }
    let mut stream = stream.expect("connect loop either sets or returns");
    stream
        .set_read_timeout(Some(Duration::from_secs(30)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{} {local}\n", id.index()).as_bytes())
        .map_err(|e| format!("rendezvous write: {e}"))?;
    let mut line = String::new();
    BufReader::new(stream)
        .read_line(&mut line)
        .map_err(|e| format!("rendezvous read: {e}"))?;
    line.trim()
        .split(' ')
        .map(|s| s.parse::<WireAddr>())
        .collect()
}

/// Runs one node end-to-end over an already-connected port: barrier,
/// script, drive loop, report. Shared by the child process entry point
/// and the in-process [`run_local`] mesh.
#[allow(clippy::too_many_arguments)]
fn drive_wire_node(
    port: &WirePort,
    script: &mut Script,
    id: NodeId,
    idle_timeout: Duration,
    suppress_steps: bool,
    commit_crash: Option<CrashMode>,
    obs: &mut dyn Observer,
    start: Instant,
) -> NodeReport {
    // Handler tables cannot be cloned (they hold closures), so each
    // process rebuilds the scenario and takes only its own node's.
    let mut participant = script.participant(id);
    let steps = if suppress_steps { Vec::new() } else { script.steps_for(id) };
    let mut notes: Vec<Note> = Vec::new();
    let mut bridge = ObsBridge::new();
    // Anchor the wire's send-time stamps to the same epoch as the
    // observation clock, so peer skew estimates translate directly
    // into per-stream timestamp corrections.
    port.rebase_epoch(start);
    let summary = drive_node(
        port,
        &mut participant,
        steps,
        start,
        idle_timeout,
        |p, ev, from| {
            // Wall-clock micros since `start` stamp the events, as on
            // the threaded engine.
            let mut fx = Vec::new();
            bridge.handle(p, ev, from, || wall_stamp(start), &mut *obs, &mut fx);
            // Commit-point crash: the resolver dies the moment its
            // state machine decides to commit, before any `Commit`
            // leaves this process. A `Stop` victim freezes *here*,
            // holding the unsent commits; when the coordinator
            // `SIGCONT`s it, this closure returns and the stale
            // commits finally hit the wire — by then the survivors
            // have deserted us, re-elected, and must fence them.
            if let Some(mode) = commit_crash {
                let committing = fx.iter().any(|e| {
                    matches!(
                        e,
                        caex::Effect::Send {
                            msg: caex::Msg::Commit { .. },
                            ..
                        }
                    )
                });
                if committing {
                    crash_now(mode);
                }
            }
            fx
        },
        |n| notes.push(n),
    );
    obs.on_run_end(wall_stamp(start).0);
    let stats = port.stats();
    let stats = stats.lock();
    NodeReport {
        id: id.index(),
        sent: stats.sent_total(),
        delivered: stats.delivered_total(),
        dropped: stats.dropped_total(),
        drained: summary.drained as u64,
        desertions: summary.deserted as u64,
        deserters: participant.deserters().iter().map(|d| d.index()).collect(),
        handled: notes
            .iter()
            .filter_map(|n| match n {
                Note::HandlerStarted { action, exc, .. } => {
                    Some((action.index(), exc.id().index()))
                }
                _ => None,
            })
            .collect(),
        committed: notes
            .iter()
            .filter_map(|n| match n {
                Note::ResolutionCommitted { action, raised, .. } => {
                    let mut ids: Vec<u32> = raised.iter().map(|(_, e)| e.id().index()).collect();
                    ids.sort_unstable();
                    Some((action.index(), ids))
                }
                _ => None,
            })
            .collect(),
        skew: port
            .skew_estimates()
            .into_iter()
            .map(|(peer, us)| (peer.index(), us))
            .collect(),
    }
}

/// Child-process entry point: bind, rendezvous, connect, barrier,
/// (maybe arm the crash), drive, print the report line.
///
/// # Errors
///
/// Any setup failure (bad spec, socket error, barrier timeout) is
/// returned as a message; the binary maps it to a nonzero exit.
pub fn run_participant(opts: &ParticipantOptions) -> Result<(), String> {
    let mut scenario = WireScenario::build(&opts.scenario)?;
    let bound = WireBound::bind(opts.id, &bind_addr(opts.transport, &opts.sock_dir, opts.id), opts.config.clone())
        .map_err(|e| format!("bind: {e}"))?;
    let addrs = rendezvous_exchange(opts.rendezvous, opts.id, bound.local_addr())?;
    if addrs.len() != scenario.num_nodes as usize {
        return Err(format!(
            "rendezvous sent {} addresses for a {}-node scenario",
            addrs.len(),
            scenario.num_nodes
        ));
    }
    let port = bound.connect(&addrs).map_err(|e| format!("mesh connect: {e}"))?;

    let mut exporter = match opts.obs {
        Some(addr) => Some(
            TcpExporter::connect_timeout(&addr, Duration::from_secs(2))
                .map_err(|e| format!("obs connect: {e}"))?,
        ),
        None => None,
    };

    port.barrier(Duration::from_secs(15))?;
    let start = Instant::now();

    if opts.partition_hold {
        // The transient partition: freeze with the mesh formed and the
        // script not yet started. Sockets stay open and heartbeats
        // cease, so the peers' accrual detectors climb into Suspected
        // — but, tuned for the outage, never Confirm. `crash_now`
        // returns when the coordinator's `SIGCONT` heals the
        // partition; every scenario step is then overdue and fires
        // zero-clamped, the buffered inbound traffic drains, and the
        // run completes as if the outage were one long latency spike.
        crash_now(CrashMode::Stop);
    }

    let barrier_crash = opts.crash_after.is_some() && opts.crash_point == CrashPoint::Barrier;
    let commit_crash = (opts.crash_after.is_some() && opts.crash_point == CrashPoint::Commit)
        .then_some(opts.crash_mode);
    if barrier_crash {
        let after = opts.crash_after.expect("barrier_crash implies crash_after");
        let mode = opts.crash_mode;
        thread::spawn(move || {
            thread::sleep(after);
            crash_now(mode);
        });
    }

    let report = match exporter.as_mut() {
        Some(obs) => drive_wire_node(
            &port, &mut scenario.script, opts.id, opts.idle_timeout, barrier_crash, commit_crash, obs, start,
        ),
        None => drive_wire_node(
            &port, &mut scenario.script, opts.id, opts.idle_timeout, barrier_crash, commit_crash, &mut (), start,
        ),
    };
    drop(exporter); // close the obs stream before reporting
    drop(port);
    println!("{REPORT_PREFIX}{}", report.to_json());
    Ok(())
}

/// Knobs for a coordinator run.
#[derive(Debug, Clone)]
pub struct CoordinatorOptions {
    /// Scenario spec.
    pub scenario: String,
    /// Path to the `caex-wire` binary to spawn participants from.
    pub binary: PathBuf,
    /// Socket family for the mesh.
    pub transport: Transport,
    /// Spool directory for Unix-domain sockets.
    pub sock_dir: PathBuf,
    /// Stream and check observability events (disabled on crash runs).
    pub obs: bool,
    /// Write the skew-stitched, merged observability stream as JSONL
    /// here (requires `obs`; the file feeds `caex-report`).
    pub obs_out: Option<PathBuf>,
    /// Crash this node mid-run, if set.
    pub crash: Option<NodeId>,
    /// How the victim crashes.
    pub crash_mode: CrashMode,
    /// When the victim crashes (barrier timer vs commit point).
    pub crash_point: CrashPoint,
    /// Delay between barrier and crash (barrier point only).
    pub crash_after: Duration,
    /// `SIGCONT` a stop-mode victim this long after the barrier — the
    /// zombie-resolver experiment. The resumed victim finishes its
    /// drive loop and prints a report like any other node.
    pub resume_after: Option<Duration>,
    /// Transient partition: `SIGSTOP` this node right after the
    /// barrier and `SIGCONT` it after the outage. Unlike
    /// [`CoordinatorOptions::crash`], the victim's script is *not*
    /// suppressed and the run is assessed as a clean run — the §4.4
    /// message law must hold after the heal and **no** deserter may be
    /// reported, because with [`CoordinatorOptions::with_partition`]'s
    /// detector tuning the outage only ever reaches `Suspected`.
    pub partition: Option<(NodeId, Duration)>,
    /// Transport tuning handed to every child.
    pub config: WireConfig,
    /// Children's drive-loop idle timeout.
    pub idle_timeout: Duration,
    /// Hard wall-clock budget for the whole run.
    pub deadline: Duration,
}

impl CoordinatorOptions {
    /// Defaults for `spec`, spawning `binary`.
    #[must_use]
    pub fn new(spec: impl Into<String>, binary: impl Into<PathBuf>) -> Self {
        CoordinatorOptions {
            scenario: spec.into(),
            binary: binary.into(),
            transport: Transport::Tcp,
            sock_dir: std::env::temp_dir(),
            obs: true,
            obs_out: None,
            crash: None,
            crash_mode: CrashMode::Exit,
            crash_point: CrashPoint::Barrier,
            crash_after: Duration::from_millis(150),
            resume_after: None,
            partition: None,
            config: WireConfig::default(),
            idle_timeout: Duration::from_millis(300),
            deadline: Duration::from_secs(30),
        }
    }

    /// Injects a crash: victim, mode, and tuned timeouts so survivors
    /// outlast detection (idle must exceed `crash_after` plus the
    /// confirmation latency, or they would quiesce before deserting
    /// the victim). The legacy 400ms timeout on a 40ms heartbeat maps
    /// to φ ≈ 4.3 via [`WireConfig::with_crash_timeout`].
    #[must_use]
    pub fn with_crash(mut self, victim: NodeId, mode: CrashMode) -> Self {
        self.crash = Some(victim);
        self.crash_mode = mode;
        self.obs = false;
        self.config.heartbeat_interval = Duration::from_millis(40);
        self.config = self.config.with_crash_timeout(Duration::from_millis(400));
        self.idle_timeout = Duration::from_millis(1500);
        self
    }

    /// Injects a *transient* partition: `victim` is `SIGSTOP`ped right
    /// after the barrier and `SIGCONT`ed after `outage`. The detector
    /// is tuned so the outage crosses the suspicion threshold early
    /// (the flap is observable) but confirmation would need 2.5× the
    /// outage of silence — the healed peer rejoins, resolution
    /// completes with every participant, and the §4.4 message law
    /// still holds. Survivor idle timeouts are stretched past the
    /// outage so nobody quiesces while the resolution waits for the
    /// partitioned peer's ACK.
    #[must_use]
    pub fn with_partition(mut self, victim: NodeId, outage: Duration) -> Self {
        self.partition = Some((victim, outage));
        self.config.heartbeat_interval = Duration::from_millis(40);
        self.config = self.config.with_crash_timeout(outage.mul_f64(2.5));
        self.idle_timeout = outage + Duration::from_millis(1000);
        self.deadline = self.deadline.max(outage.mul_f64(4.0) + Duration::from_secs(15));
        self
    }

    /// Moves the injected crash to the victim's commit broadcast: the
    /// victim plays its script (raising and getting elected §4.2
    /// resolver) and dies with the commit unsent, so survivors must
    /// fail over. Implies [`CoordinatorOptions::with_crash`] tuning.
    #[must_use]
    pub fn at_commit_point(mut self) -> Self {
        self.crash_point = CrashPoint::Commit;
        self
    }

    /// `SIGCONT`s a stop-mode victim `after` the barrier, turning it
    /// into a zombie resolver: it wakes holding stale state (for a
    /// commit-point crash, unsent `Commit`s), flushes it at the
    /// already-failed-over survivors, and must be fenced rather than
    /// split the decision.
    #[must_use]
    pub fn resuming_after(mut self, after: Duration) -> Self {
        self.resume_after = Some(after);
        self
    }
}

/// Serves the rendezvous: accepts `n` connections, reads each node's
/// `"<id> <addr>"` line, then answers every node with the full map.
fn serve_rendezvous(
    listener: &TcpListener,
    n: usize,
    deadline: Instant,
) -> Result<Vec<WireAddr>, String> {
    listener.set_nonblocking(true).map_err(|e| e.to_string())?;
    let mut slots: Vec<Option<WireAddr>> = vec![None; n];
    let mut streams = Vec::with_capacity(n);
    while streams.len() < n {
        if Instant::now() > deadline {
            return Err(format!(
                "rendezvous timed out with {}/{n} nodes registered",
                streams.len()
            ));
        }
        match listener.accept() {
            Ok((stream, _)) => {
                stream
                    .set_nonblocking(false)
                    .and_then(|()| stream.set_read_timeout(Some(Duration::from_secs(10))))
                    .map_err(|e| e.to_string())?;
                let mut reader = BufReader::new(stream);
                let mut line = String::new();
                reader
                    .read_line(&mut line)
                    .map_err(|e| format!("rendezvous read: {e}"))?;
                let (id, addr) = line
                    .trim()
                    .split_once(' ')
                    .ok_or_else(|| format!("malformed rendezvous line `{}`", line.trim()))?;
                let id: usize = id.parse().map_err(|e| format!("bad node id: {e}"))?;
                if id >= n {
                    return Err(format!("rendezvous id {id} out of range for {n} nodes"));
                }
                slots[id] = Some(addr.parse::<WireAddr>()?);
                streams.push(reader.into_inner());
            }
            Err(e) if e.kind() == std::io::ErrorKind::WouldBlock => {
                thread::sleep(Duration::from_millis(5));
            }
            Err(e) => return Err(format!("rendezvous accept: {e}")),
        }
    }
    let map: Vec<WireAddr> = slots
        .into_iter()
        .map(|s| s.ok_or_else(|| "a node registered twice".to_owned()))
        .collect::<Result<_, _>>()?;
    let line = map
        .iter()
        .map(ToString::to_string)
        .collect::<Vec<_>>()
        .join(" ")
        + "\n";
    for mut stream in streams {
        stream
            .write_all(line.as_bytes())
            .map_err(|e| format!("rendezvous reply: {e}"))?;
    }
    Ok(map)
}

/// Reaps children within the deadline. A stop-mode victim that will
/// never be resumed cannot exit on its own: once every other child is
/// done it is killed. A victim with a scheduled `SIGCONT` (`resumes`)
/// is left to finish and exit like any other node. On deadline,
/// everything still running is killed and a failure recorded.
fn reap_children(
    children: &mut [(NodeId, Child)],
    victim: Option<NodeId>,
    crash_mode: CrashMode,
    resumes: bool,
    deadline: Instant,
    failures: &mut Vec<String>,
) {
    let mut exited = vec![false; children.len()];
    loop {
        let mut all_others_done = true;
        for (i, (id, child)) in children.iter_mut().enumerate() {
            if exited[i] {
                continue;
            }
            match child.try_wait() {
                Ok(Some(status)) => {
                    exited[i] = true;
                    let is_victim = victim == Some(*id);
                    let expected = if is_victim && crash_mode == CrashMode::Exit {
                        status.code() == Some(2)
                    } else if is_victim {
                        true // stop-mode victim dies by our SIGKILL
                    } else {
                        status.success()
                    };
                    if !expected {
                        failures.push(format!("node {id} exited with {status}"));
                    }
                }
                Ok(None) => {
                    if victim != Some(*id) {
                        all_others_done = false;
                    }
                }
                Err(e) => {
                    exited[i] = true;
                    failures.push(format!("waiting on node {id}: {e}"));
                }
            }
        }
        if exited.iter().all(|e| *e) {
            return;
        }
        let overdue = Instant::now() > deadline;
        for (i, (id, child)) in children.iter_mut().enumerate() {
            if exited[i] {
                continue;
            }
            let stalled_victim = all_others_done && victim == Some(*id) && !resumes;
            if overdue || stalled_victim {
                // SIGKILL works on a SIGSTOPped process too.
                let _ = child.kill();
                if overdue && victim != Some(*id) {
                    failures.push(format!("node {id} missed the deadline and was killed"));
                }
            }
        }
        thread::sleep(Duration::from_millis(10));
    }
}

/// Replays the merged per-process observability streams through the
/// watchdog: concatenate, stable-sort by timestamp (per-object order
/// is preserved — each object's events come from one stream), check.
fn run_watchdog(streams: Vec<Vec<ObsEvent>>, pq: Option<(u32, u32)>) -> Vec<String> {
    let mut merged: Vec<ObsEvent> = streams.into_iter().flatten().collect();
    merged.sort_by_key(|e| e.at);
    let mut dog = Watchdog::new().with_expected_commits(1);
    if pq.is_some() {
        dog = dog.with_multicast_law();
    }
    for event in &merged {
        dog.on_event(event);
    }
    dog.violations().iter().map(ToString::to_string).collect()
}

/// Spawns the mesh, runs the scenario across OS processes, and checks
/// the §4.4 / §4.5 laws against the aggregated socket traffic.
///
/// # Errors
///
/// Infrastructure failures (spawn, rendezvous, report parsing) are
/// errors; *protocol* failures land in [`RunSummary::failures`] so
/// callers can inspect them.
///
/// # Panics
///
/// Panics if an internal collector thread panicked.
#[allow(clippy::too_many_lines)]
pub fn run_coordinator(opts: &CoordinatorOptions) -> Result<RunSummary, String> {
    let scenario = WireScenario::build(&opts.scenario)?;
    let n = scenario.num_nodes;
    let deadline = Instant::now() + opts.deadline;
    let crash_run = opts.crash.is_some();
    if let Some(victim) = opts.crash {
        if victim.index() >= n {
            return Err(format!("crash victim {victim} out of range for {n} nodes"));
        }
    }

    // The simulator is the oracle; run it first, in-process.
    let baseline: SimBaseline = WireScenario::sim_baseline(&opts.scenario)?;

    let rendezvous = TcpListener::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
    let rendezvous_addr = rendezvous.local_addr().map_err(|e| e.to_string())?;

    let use_obs = opts.obs && !crash_run;
    let (obs_addr, collector) = if use_obs {
        let collector = caex_obs::EventCollector::bind(("127.0.0.1", 0)).map_err(|e| e.to_string())?;
        let addr = collector.local_addr().map_err(|e| e.to_string())?;
        let handle = thread::spawn(move || collector.collect(n as usize));
        (Some(addr), Some(handle))
    } else {
        (None, None)
    };

    let mut children: Vec<(NodeId, Child)> = Vec::with_capacity(n as usize);
    let mut stdout_readers = Vec::with_capacity(n as usize);
    for i in 0..n {
        let id = NodeId::new(i);
        let mut cmd = Command::new(&opts.binary);
        cmd.arg("--role")
            .arg("participant")
            .arg("--scenario")
            .arg(&opts.scenario)
            .arg("--id")
            .arg(i.to_string())
            .arg("--rendezvous")
            .arg(rendezvous_addr.to_string())
            .arg("--transport")
            .arg(match opts.transport {
                Transport::Tcp => "tcp",
                Transport::Unix => "unix",
            })
            .arg("--sock-dir")
            .arg(&opts.sock_dir)
            .arg("--idle-timeout-ms")
            .arg(opts.idle_timeout.as_millis().to_string())
            .arg("--heartbeat-ms")
            .arg(opts.config.heartbeat_interval.as_millis().to_string())
            .arg("--phi-suspect")
            .arg(opts.config.phi_suspect.to_string())
            .arg("--phi-confirm")
            .arg(opts.config.phi_confirm.to_string())
            .arg("--phi-window")
            .arg(opts.config.phi_window.to_string())
            .arg("--reconnect-backoff-ms")
            .arg(opts.config.reconnect_backoff.as_millis().to_string())
            .stdout(Stdio::piped())
            .stderr(Stdio::inherit());
        if let Some(addr) = obs_addr {
            cmd.arg("--obs").arg(addr.to_string());
        }
        if opts.partition.is_some_and(|(victim, _)| victim == id) {
            cmd.arg("--partition-hold").arg("1");
        }
        if opts.crash == Some(id) {
            cmd.arg("--crash-after-ms")
                .arg(opts.crash_after.as_millis().to_string())
                .arg("--crash-mode")
                .arg(match opts.crash_mode {
                    CrashMode::Exit => "exit",
                    CrashMode::Stop => "stop",
                })
                .arg("--crash-point")
                .arg(match opts.crash_point {
                    CrashPoint::Barrier => "barrier",
                    CrashPoint::Commit => "commit",
                });
        }
        let mut child = cmd
            .spawn()
            .map_err(|e| format!("spawning node {i}: {e}"))?;
        let stdout = child.stdout.take().expect("stdout was piped");
        stdout_readers.push(thread::spawn(move || {
            BufReader::new(stdout)
                .lines()
                .map_while(Result::ok)
                .collect::<Vec<String>>()
        }));
        children.push((id, child));
    }

    let rendezvous_result = serve_rendezvous(&rendezvous, n as usize, deadline);
    let mut failures: Vec<String> = Vec::new();
    if let Err(e) = rendezvous_result {
        // Children will fail their own rendezvous; kill and bail.
        for (_, child) in &mut children {
            let _ = child.kill();
        }
        return Err(e);
    }

    let resume = match (opts.crash, opts.resume_after, opts.partition) {
        (Some(victim), Some(after), _) => Some((victim, after)),
        (_, _, Some((victim, outage))) => Some((victim, outage)),
        _ => None,
    };
    if let Some((victim, after)) = resume {
        if let Some((_, child)) = children.iter().find(|(id, _)| *id == victim) {
            let pid = child.id().to_string();
            thread::spawn(move || {
                thread::sleep(after);
                let _ = Command::new("kill").args(["-CONT", &pid]).status();
            });
        }
    }

    reap_children(
        &mut children,
        opts.crash,
        opts.crash_mode,
        opts.resume_after.is_some(),
        deadline,
        &mut failures,
    );

    let mut reports: Vec<NodeReport> = Vec::new();
    for (i, reader) in stdout_readers.into_iter().enumerate() {
        let lines = reader.join().expect("stdout reader panicked");
        let report_line = lines
            .iter()
            .find_map(|l| l.strip_prefix(REPORT_PREFIX));
        match report_line {
            Some(body) => {
                let value = json::parse(body).map_err(|e| format!("node {i} report: {e:?}"))?;
                reports.push(NodeReport::from_json(&value)?);
            }
            None if opts.crash == Some(NodeId::new(i as u32)) => {} // the victim dies reportless
            None => failures.push(format!("node {i} printed no report")),
        }
    }
    reports.sort_by_key(|r| r.id);

    let watchdog_violations = match collector {
        Some(handle) => {
            let streams = handle
                .join()
                .expect("collector thread panicked")
                .map_err(|e| format!("collecting obs streams: {e}"))?;
            // Stitch the per-process streams onto node 0's timeline:
            // solve pairwise skew estimates (reported by every node)
            // into per-stream offsets, shift, then merge time-sorted.
            let skews: BTreeMap<u32, BTreeMap<u32, i64>> = reports
                .iter()
                .map(|r| (r.id, r.skew.iter().copied().collect()))
                .collect();
            let offsets = causal::solve_offsets(&skews, 0);
            let mut streams = streams;
            for stream in &mut streams {
                let Some(node) = stream.first().map(|e| e.object.index()) else {
                    continue;
                };
                causal::shift_events(stream, offsets.get(&node).copied().unwrap_or(0));
            }
            let merged = causal::merge_streams(streams);
            if let Some(path) = &opts.obs_out {
                let mut out = String::with_capacity(merged.len() * 96);
                for event in &merged {
                    out.push_str(&caex_obs::exporters::event_to_json(event).to_string());
                    out.push('\n');
                }
                std::fs::write(path, out)
                    .map_err(|e| format!("writing {}: {e}", path.display()))?;
            }
            run_watchdog(vec![merged], scenario.pq)
        }
        None => Vec::new(),
    };
    for v in &watchdog_violations {
        failures.push(format!("watchdog: {v}"));
    }

    let total_sent: u64 = reports.iter().map(|r| r.sent).sum();
    let action = scenario.action.index();
    let mut resolved_set: BTreeSet<u32> = BTreeSet::new();
    let mut handled_count = 0usize;
    for report in &reports {
        for (a, e) in &report.handled {
            if *a == action {
                resolved_set.insert(*e);
                handled_count += 1;
            }
        }
    }
    if resolved_set.len() > 1 {
        failures.push(format!(
            "agreement violated: handlers saw exceptions {resolved_set:?}"
        ));
    }
    let resolved = resolved_set.iter().next().copied();

    // A resumed zombie victim prints a report too; its view of peers
    // that hung up after the run is not a protocol outcome, so only
    // survivors' desertions count.
    let mut deserters: Vec<u32> = reports
        .iter()
        .filter(|r| opts.crash.is_none_or(|v| r.id != v.index()))
        .flat_map(|r| r.deserters.iter().copied())
        .collect();
    deserters.sort_unstable();
    deserters.dedup();

    if crash_run {
        let victim = opts.crash.expect("crash_run").index();
        // Every surviving declared participant must have excluded the
        // victim and still reached the same resolution as the oracle.
        for p in &scenario.participants {
            if p.index() == victim {
                continue;
            }
            let listed = reports
                .iter()
                .find(|r| r.id == p.index())
                .is_some_and(|r| r.deserters.contains(&victim));
            if !listed {
                failures.push(format!(
                    "survivor {p} did not report node {victim} as a deserter"
                ));
            }
        }
        if resolved != baseline.agreed.map(|e| e.index()) {
            failures.push(format!(
                "crash run resolved {resolved:?}, simulator resolved {:?}",
                baseline.agreed.map(|e| e.index())
            ));
        }
        let live_participants = scenario
            .participants
            .iter()
            .filter(|p| p.index() != victim)
            .count();
        // A commit-point victim starts its own handler before dying
        // (and a resumed zombie reports it), so only survivors are
        // held to the one-handler-each law.
        let survivor_handled = reports
            .iter()
            .filter(|r| r.id != victim)
            .flat_map(|r| r.handled.iter())
            .filter(|(a, _)| *a == action)
            .count();
        if survivor_handled != live_participants {
            failures.push(format!(
                "{survivor_handled} survivor handlers started, expected one per survivor ({live_participants})"
            ));
        }
    } else {
        match scenario.expected_messages {
            Some(expected) => {
                if total_sent != expected {
                    failures.push(format!(
                        "socket traffic {total_sent} != (N-1)(2P+3Q+1) = {expected}"
                    ));
                }
            }
            // No closed form (Example 2's cross-level run): the
            // zero-clamped script makes the burst structure match the
            // simulator's, so its count is still the oracle.
            None => {
                if total_sent != baseline.total_messages {
                    failures.push(format!(
                        "socket traffic {total_sent} != simulator's {}",
                        baseline.total_messages
                    ));
                }
            }
        }
        if resolved != baseline.agreed.map(|e| e.index()) {
            failures.push(format!(
                "wire resolved {resolved:?}, simulator resolved {:?}",
                baseline.agreed.map(|e| e.index())
            ));
        }
        // Who resolved, and over how many raised exceptions: equal
        // counts and an equal outcome can hide a different run (a
        // handler table that never fired, a signal never raised).
        let commit = reports.iter().find_map(|r| {
            let (_, raised) = r.committed.iter().find(|(a, _)| *a == action)?;
            Some((NodeId::new(r.id), raised.len()))
        });
        let resolver = commit.map(|(resolver, _)| resolver);
        if resolver != baseline.resolver {
            let name = |r: Option<NodeId>| r.map_or("nobody".to_owned(), |r| r.to_string());
            failures.push(format!(
                "resolver {}, simulator says {}",
                name(resolver),
                name(baseline.resolver)
            ));
        }
        let raised = commit.map_or(0, |(_, raised)| raised);
        if raised != baseline.raised.len() {
            failures.push(format!(
                "raised set of {raised}, simulator says {}",
                baseline.raised.len()
            ));
        }
        if handled_count != scenario.participants.len() {
            failures.push(format!(
                "{handled_count} handlers started, expected one per participant ({})",
                scenario.participants.len()
            ));
        }
        if !deserters.is_empty() {
            failures.push(format!("clean run reported deserters {deserters:?}"));
        }
    }

    Ok(RunSummary {
        scenario: opts.scenario.clone(),
        num_nodes: n,
        total_sent,
        expected_messages: scenario.expected_messages,
        sim_messages: baseline.total_messages,
        resolved,
        sim_resolved: baseline.agreed.map(|e| e.index()),
        deserters,
        watchdog_violations,
        reports,
        failures,
    })
}

/// Outcome of an in-process [`run_local`] mesh.
#[derive(Debug)]
pub struct LocalOutcome {
    /// Per-node reports, in node order.
    pub reports: Vec<NodeReport>,
    /// Protocol messages across all ports.
    pub total_sent: u64,
    /// The exception resolution agreed on (asserted consistent).
    pub resolved: Option<ExceptionId>,
}

/// Runs a wire scenario with every node on its own thread of *this*
/// process — same sockets, same frames, no child processes. The
/// fixture for transport tests and benches.
///
/// # Errors
///
/// Propagates spec, socket, and barrier failures.
///
/// # Panics
///
/// Panics if a node thread panicked or the agreement invariant broke.
pub fn run_local(
    spec: &str,
    transport: Transport,
    sock_dir: &std::path::Path,
    config: &WireConfig,
    idle_timeout: Duration,
) -> Result<LocalOutcome, String> {
    let scenario = WireScenario::build(spec)?;
    let n = scenario.num_nodes;
    let mut bounds = Vec::with_capacity(n as usize);
    for i in 0..n {
        let id = NodeId::new(i);
        bounds.push(
            WireBound::bind(id, &bind_addr(transport, sock_dir, id), config.clone())
                .map_err(|e| format!("bind {i}: {e}"))?,
        );
    }
    let addrs: Vec<WireAddr> = bounds.iter().map(|b| b.local_addr().clone()).collect();
    let spec = spec.to_string();
    let start = Instant::now();
    let mut joins = Vec::with_capacity(n as usize);
    for (i, bound) in bounds.into_iter().enumerate() {
        let addrs = addrs.clone();
        let spec = spec.clone();
        let idle = idle_timeout;
        joins.push(thread::spawn(move || -> Result<NodeReport, String> {
            // Each thread rebuilds the scenario: handler tables hold
            // closures and cannot be cloned across threads.
            let mut script = WireScenario::build(&spec)?.script;
            let id = NodeId::new(i as u32);
            let port = bound.connect(&addrs).map_err(|e| format!("connect {id}: {e}"))?;
            port.barrier(Duration::from_secs(10))?;
            Ok(drive_wire_node(&port, &mut script, id, idle, false, None, &mut (), start))
        }));
    }
    let mut reports = Vec::with_capacity(n as usize);
    for join in joins {
        reports.push(join.join().expect("node thread panicked")?);
    }
    reports.sort_by_key(|r| r.id);
    let total_sent = reports.iter().map(|r| r.sent).sum();
    let action = scenario.action.index();
    let mut resolved: Option<ExceptionId> = None;
    for report in &reports {
        for (a, e) in &report.handled {
            if *a != action {
                continue;
            }
            let exc = ExceptionId::new(*e);
            match resolved {
                None => resolved = Some(exc),
                Some(prev) => assert_eq!(prev, exc, "agreement violated in local mesh"),
            }
        }
    }
    Ok(LocalOutcome {
        reports,
        total_sent,
        resolved,
    })
}
