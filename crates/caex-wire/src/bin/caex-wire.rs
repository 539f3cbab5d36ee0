//! The `caex-wire` binary: run the §4.2 resolution algorithm across
//! OS processes over real sockets.
//!
//! ```text
//! # whole run, one command (spawns one child process per node):
//! caex-wire --role coordinator --scenario example1
//!
//! # same, also writing the skew-stitched merged trace for
//! # `caex-report`:
//! caex-wire --role coordinator --scenario example2 --obs-out ex2.jsonl
//!
//! # random (n, p, q) grid, each cell a fresh multi-process mesh:
//! caex-wire --role coordinator --grid 4 --seed 7
//!
//! # transient partition: SIGSTOP node 3 for 1s mid-run, then heal —
//! # the run must still satisfy the §4.4 law with zero deserters:
//! caex-wire --role coordinator --scenario example1 --partition 3 --partition-ms 1000
//!
//! # what the coordinator spawns under the hood:
//! caex-wire --role participant --scenario example1 --id 2 \
//!           --rendezvous 127.0.0.1:4000
//! ```
//!
//! The coordinator prints one `CAEX-WIRE-SUMMARY {json}` line per run
//! and exits nonzero if any §4.4/§4.5 assertion failed. Participants
//! print one `CAEX-WIRE-REPORT {json}` line each.

use caex::analysis;
use caex_net::NodeId;
use caex_wire::harness::{
    run_coordinator, run_participant, CoordinatorOptions, CrashMode, CrashPoint,
    ParticipantOptions, Transport, SUMMARY_PREFIX,
};
use caex_wire::wire::WireConfig;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::path::PathBuf;
use std::time::Duration;

/// Parsed command line; every flag is `--name value`.
struct Args {
    map: Vec<(String, String)>,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut map = Vec::new();
        let mut iter = std::env::args().skip(1);
        while let Some(flag) = iter.next() {
            let Some(name) = flag.strip_prefix("--") else {
                return Err(format!("unexpected positional argument `{flag}`"));
            };
            let value = iter
                .next()
                .ok_or_else(|| format!("flag --{name} needs a value"))?;
            map.push((name.to_string(), value));
        }
        Ok(Args { map })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == name)
            .map(|(_, v)| v.as_str())
    }

    fn parse_as<T: std::str::FromStr>(&self, name: &str) -> Result<Option<T>, String>
    where
        T::Err: std::fmt::Display,
    {
        self.get(name)
            .map(|v| {
                v.parse::<T>()
                    .map_err(|e| format!("bad value for --{name}: {e}"))
            })
            .transpose()
    }

    fn millis(&self, name: &str) -> Result<Option<Duration>, String> {
        Ok(self.parse_as::<u64>(name)?.map(Duration::from_millis))
    }
}

fn wire_config(args: &Args) -> Result<WireConfig, String> {
    let mut config = WireConfig::default();
    if let Some(hb) = args.millis("heartbeat-ms")? {
        config.heartbeat_interval = hb;
    }
    if let Some(phi) = args.parse_as::<f64>("phi-suspect")? {
        config.phi_suspect = phi;
    }
    if let Some(phi) = args.parse_as::<f64>("phi-confirm")? {
        config.phi_confirm = phi;
    }
    if let Some(window) = args.parse_as::<usize>("phi-window")? {
        config.phi_window = window;
    }
    if let Some(backoff) = args.millis("reconnect-backoff-ms")? {
        config.reconnect_backoff = backoff;
    }
    // Legacy alias, applied last so it wins: a fixed crash timeout
    // becomes the equivalent `phi_confirm` at the chosen heartbeat.
    if let Some(ct) = args.millis("crash-timeout-ms")? {
        config = config.with_crash_timeout(ct);
    }
    Ok(config)
}

fn participant_main(args: &Args) -> Result<(), String> {
    let id = args
        .parse_as::<u32>("id")?
        .ok_or("--id is required for participants")?;
    let rendezvous = args
        .parse_as::<std::net::SocketAddr>("rendezvous")?
        .ok_or("--rendezvous is required for participants")?;
    let opts = ParticipantOptions {
        id: NodeId::new(id),
        scenario: args
            .get("scenario")
            .ok_or("--scenario is required")?
            .to_string(),
        transport: args.parse_as("transport")?.unwrap_or(Transport::Tcp),
        sock_dir: args
            .get("sock-dir")
            .map_or_else(std::env::temp_dir, PathBuf::from),
        rendezvous,
        obs: args.parse_as("obs")?,
        config: wire_config(args)?,
        crash_after: args.millis("crash-after-ms")?,
        crash_mode: args.parse_as("crash-mode")?.unwrap_or(CrashMode::Exit),
        crash_point: args.parse_as("crash-point")?.unwrap_or(CrashPoint::Barrier),
        partition_hold: matches!(args.get("partition-hold"), Some("true" | "1" | "yes")),
    };
    run_participant(&opts)
}

fn coordinator_options(args: &Args, scenario: String) -> Result<CoordinatorOptions, String> {
    let binary = std::env::current_exe().map_err(|e| format!("locating own binary: {e}"))?;
    let mut opts = CoordinatorOptions::new(scenario, binary);
    if let Some(t) = args.parse_as("transport")? {
        opts.transport = t;
    }
    if let Some(dir) = args.get("sock-dir") {
        opts.sock_dir = PathBuf::from(dir);
    }
    if let Some(no_obs) = args.get("no-obs") {
        opts.obs = !matches!(no_obs, "true" | "1" | "yes");
    }
    if let Some(path) = args.get("obs-out") {
        opts.obs_out = Some(PathBuf::from(path));
    }
    if let Some(victim) = args.parse_as::<u32>("crash")? {
        let mode = args.parse_as("crash-mode")?.unwrap_or(CrashMode::Exit);
        opts = opts.with_crash(NodeId::new(victim), mode);
        if let Some(after) = args.millis("crash-after-ms")? {
            opts.crash_after = after;
        }
        if let Some(point) = args.parse_as("crash-point")? {
            opts.crash_point = point;
        }
        if let Some(resume) = args.millis("resume-after-ms")? {
            opts.resume_after = Some(resume);
        }
    }
    if let Some(victim) = args.parse_as::<u32>("partition")? {
        let outage = args
            .millis("partition-ms")?
            .unwrap_or(Duration::from_millis(1000));
        opts = opts.with_partition(NodeId::new(victim), outage);
    }
    opts.config.heartbeat_interval = args
        .millis("heartbeat-ms")?
        .unwrap_or(opts.config.heartbeat_interval);
    if let Some(phi) = args.parse_as::<f64>("phi-suspect")? {
        opts.config.phi_suspect = phi;
    }
    if let Some(phi) = args.parse_as::<f64>("phi-confirm")? {
        opts.config.phi_confirm = phi;
    }
    if let Some(window) = args.parse_as::<usize>("phi-window")? {
        opts.config.phi_window = window;
    }
    if let Some(backoff) = args.millis("reconnect-backoff-ms")? {
        opts.config.reconnect_backoff = backoff;
    }
    if let Some(ct) = args.millis("crash-timeout-ms")? {
        opts.config = opts.config.with_crash_timeout(ct);
    }
    if let Some(deadline) = args.millis("deadline-ms")? {
        opts.deadline = deadline;
    }
    Ok(opts)
}

/// One coordinated run; prints the summary line and reports success.
fn run_one(args: &Args, scenario: String) -> Result<bool, String> {
    let opts = coordinator_options(args, scenario)?;
    let summary = run_coordinator(&opts)?;
    println!("{SUMMARY_PREFIX}{}", summary.to_json());
    for failure in &summary.failures {
        eprintln!("caex-wire: FAIL [{}]: {failure}", summary.scenario);
    }
    Ok(summary.ok())
}

/// Random `(n, p, q)` grid: `count` cells, each a full multi-process
/// mesh over localhost, each held to `(N-1)(2P+3Q+1)`.
fn grid_main(args: &Args, count: u32) -> Result<bool, String> {
    let seed = args.parse_as::<u64>("seed")?.unwrap_or(42);
    let mut rng = StdRng::seed_from_u64(seed);
    let mut all_ok = true;
    for cell in 0..count {
        let n = rng.gen_range(2..=5u32);
        let p = rng.gen_range(1..=n);
        let q = rng.gen_range(0..=(n - p));
        let spec = format!("general:{n},{p},{q}");
        eprintln!(
            "caex-wire: grid cell {}/{count}: {spec} (expect {} messages)",
            cell + 1,
            analysis::messages_general(u64::from(n), u64::from(p), u64::from(q))
        );
        all_ok &= run_one(args, spec)?;
    }
    Ok(all_ok)
}

fn main() {
    let args = match Args::parse() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("caex-wire: {e}");
            std::process::exit(64);
        }
    };
    let outcome = match args.get("role").unwrap_or("coordinator") {
        "participant" => participant_main(&args).map(|()| true),
        "coordinator" => {
            if let Ok(Some(count)) = args.parse_as::<u32>("grid") {
                grid_main(&args, count)
            } else {
                match args.get("scenario") {
                    Some(s) => run_one(&args, s.to_string()),
                    None => Err("--scenario (or --grid N) is required".to_string()),
                }
            }
        }
        other => Err(format!("unknown role `{other}`")),
    };
    match outcome {
        Ok(true) => {}
        Ok(false) => std::process::exit(1),
        Err(e) => {
            eprintln!("caex-wire: {e}");
            std::process::exit(1);
        }
    }
}
