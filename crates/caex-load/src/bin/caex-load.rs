//! `caex-load` — open-loop load generator for the caex resolution
//! engines.
//!
//! ```text
//! caex-load run --arrivals poisson:1000 --actions 200 --engine sim \
//!     [--workers S] [--capacity C] [--deadline-ms D] [--seed N] \
//!     [--out row.json] [--folded stacks.folded] \
//!     [--assert-law] [--assert-no-misses]
//! caex-load saturation [--seed N] [--out BENCH_PR10.json]
//! ```
//!
//! `run` drives one load cell and prints a summary row; `--out` writes
//! the row as JSON, `--folded` writes the fleet's folded flame-graph
//! stacks (sim engine only). The `--assert-*` flags turn protocol
//! expectations into a non-zero exit status for CI smokes. `saturation`
//! regenerates the full pinned PR10 study, validates it, and writes
//! the document.

use caex_load::arrivals::ArrivalSpec;
use caex_load::suite::{
    bench_pr10, bench_pr10_json, render_saturation_table, run_load, validate_bench_pr10, Engine,
    LoadConfig,
};
use caex_net::SimTime;
use caex_obs::JsonValue;
use std::process::ExitCode;

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mode = args.first().map(String::as_str);
    let result = match mode {
        Some("run") => run_main(&args[1..]),
        Some("saturation") => saturation_main(&args[1..]),
        _ => Err("usage: caex-load run|saturation [flags] (see --help in crate docs)".into()),
    };
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(why) => {
            eprintln!("caex-load: {why}");
            ExitCode::FAILURE
        }
    }
}

/// Minimal flag parser: `--key value` pairs plus boolean `--key`
/// switches.
struct Flags {
    pairs: Vec<(String, String)>,
    switches: Vec<String>,
}

/// `run`'s flags that take a value, and its boolean switches.
const RUN_FLAGS: &[&str] = &[
    "arrivals",
    "actions",
    "engine",
    "workers",
    "capacity",
    "deadline-ms",
    "seed",
    "out",
    "folded",
];
const RUN_SWITCHES: &[&str] = &["assert-law", "assert-no-misses"];
const SATURATION_FLAGS: &[&str] = &["seed", "out"];

impl Flags {
    /// Parses `args`, refusing anything but the sub-command's value
    /// flags `known` and boolean `switches`.
    fn parse(args: &[String], known: &[&str], switches_known: &[&str]) -> Result<Flags, String> {
        let mut pairs = Vec::new();
        let mut switches = Vec::new();
        let mut it = args.iter();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument `{arg}`"))?;
            if switches_known.contains(&key) {
                switches.push(key.to_owned());
            } else if known.contains(&key) {
                let value = it.next().ok_or_else(|| format!("--{key} needs a value"))?;
                pairs.push((key.to_owned(), value.clone()));
            } else {
                let all = known.iter().chain(switches_known);
                let all: Vec<String> = all.map(|k| format!("--{k}")).collect();
                return Err(format!("unknown flag --{key} (known: {})", all.join(" ")));
            }
        }
        Ok(Flags { pairs, switches })
    }

    fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    fn has(&self, key: &str) -> bool {
        self.switches.iter().any(|s| s == key)
    }

    fn num<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v.parse().map_err(|_| format!("bad --{key} value `{v}`")),
        }
    }

    /// A count the engines need at least one of.
    fn at_least_one(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.num(key, default)? {
            0 => Err(format!("--{key} must be at least 1")),
            n => Ok(n),
        }
    }
}

fn run_main(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, RUN_FLAGS, RUN_SWITCHES)?;
    let arrivals = ArrivalSpec::parse(flags.get("arrivals").unwrap_or("poisson:1000"))?;
    let engine = Engine::parse(flags.get("engine").unwrap_or("sim"))?;
    let deadline_ms: u64 = flags.num("deadline-ms", 20)?;
    // A deadline is added to an arrival: each must fit in half of
    // virtual time, a `u64` of microseconds.
    let deadline_us = deadline_ms
        .checked_mul(1_000)
        .filter(|&us| us <= u64::MAX / 2)
        .ok_or("--deadline-ms is too long")?;
    let config = LoadConfig {
        engine,
        arrivals,
        actions: flags.at_least_one("actions", 200)?,
        shards: flags.at_least_one("workers", 1)?,
        capacity: flags.at_least_one("capacity", 2)?,
        deadline: (deadline_us > 0).then(|| SimTime::from_micros(deadline_us)),
        seed: flags.num("seed", 10)?,
        collect_flame: flags.get("folded").is_some(),
    };
    // Virtual time is a `u64` of microseconds: an arrival in its last
    // half leaves no room to run the action that arrives.
    let last = arrivals.schedule(config.actions, config.seed).last().copied();
    if last.is_some_and(|t| t.as_micros() > u64::MAX / 2) {
        return Err(format!("--arrivals {arrivals} runs past the end of virtual time"));
    }
    if config.collect_flame && engine != Engine::Sim {
        return Err("--folded needs --engine sim (baselines replay a queue, no stacks)".into());
    }
    let outcome = run_load(&config);
    println!(
        "engine={} workers={}x{} offered={:.0}/s completed={}/{} achieved={:.1}/s \
         p50={}us p99={}us p999={}us misses={} law={} msgs/action={}",
        engine,
        config.shards,
        config.capacity,
        outcome.offered_per_sec,
        outcome.completed,
        config.actions,
        outcome.achieved_per_sec,
        outcome.hist.p50(),
        outcome.hist.p99(),
        outcome.hist.p999(),
        outcome.deadline_misses,
        outcome
            .law_holds
            .map_or_else(|| "n/a".into(), |b| b.to_string()),
        outcome.messages_per_action,
    );
    if let Some(path) = flags.get("folded") {
        let folded = outcome.folded.as_deref().unwrap_or("");
        std::fs::write(path, folded).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("folded stacks written to {path}");
    }
    if let Some(path) = flags.get("out") {
        let row = JsonValue::Obj(vec![
            ("engine".into(), JsonValue::str(engine.as_str())),
            ("arrivals".into(), JsonValue::str(arrivals.to_string())),
            ("actions".into(), JsonValue::num(config.actions as u64)),
            ("workers".into(), JsonValue::num(config.shards as u64)),
            ("capacity".into(), JsonValue::num(config.capacity as u64)),
            ("seed".into(), JsonValue::num(config.seed)),
            ("completed".into(), JsonValue::num(outcome.completed as u64)),
            ("achieved_per_sec".into(), JsonValue::Num(outcome.achieved_per_sec)),
            ("p50_us".into(), JsonValue::num(outcome.hist.p50())),
            ("p99_us".into(), JsonValue::num(outcome.hist.p99())),
            ("p999_us".into(), JsonValue::num(outcome.hist.p999())),
            ("deadline_misses".into(), JsonValue::num(outcome.deadline_misses as u64)),
            (
                "law_holds".into(),
                match outcome.law_holds {
                    Some(b) => JsonValue::Bool(b),
                    None => JsonValue::Null,
                },
            ),
            ("messages_per_action".into(), JsonValue::num(outcome.messages_per_action)),
        ]);
        std::fs::write(path, format!("{row}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("row written to {path}");
    }
    if flags.has("assert-law") {
        if engine != Engine::Sim {
            return Err("--assert-law needs --engine sim (the law describes §4.2)".into());
        }
        outcome.check_law(config.actions)?;
    }
    if flags.has("assert-no-misses") && outcome.deadline_misses != 0 {
        return Err(format!(
            "{} deadline misses at offered {:.0}/s",
            outcome.deadline_misses, outcome.offered_per_sec
        ));
    }
    Ok(())
}

fn saturation_main(args: &[String]) -> Result<(), String> {
    let flags = Flags::parse(args, SATURATION_FLAGS, &[])?;
    if let Some(seed) = flags.get("seed") {
        let pinned = caex_load::suite::BENCH_SEED;
        let seed: u64 = seed.parse().map_err(|_| format!("bad --seed `{seed}`"))?;
        if seed != pinned {
            return Err(format!(
                "the pinned study uses seed {pinned}; run `caex-load run --seed {seed} ...` \
                 for ad-hoc seeds"
            ));
        }
    }
    let cells = bench_pr10();
    let doc = bench_pr10_json(&cells);
    let count = validate_bench_pr10(&doc)?;
    print!("{}", render_saturation_table(&doc));
    if let Some(path) = flags.get("out") {
        std::fs::write(path, format!("{doc}\n")).map_err(|e| format!("writing {path}: {e}"))?;
        eprintln!("saturation study ({count} cells, laws ok) written to {path}");
    }
    Ok(())
}
