//! The `caex-report` binary: record observability traces and run the
//! causal analysis over them.
//!
//! ```text
//! # record a workload's full ObsEvent stream as JSONL:
//! caex-report record --workload example2 --out ex2.jsonl
//!
//! # analyze any recorded stream (an engine recording or the merged
//! # `caex-wire --obs-out` trace of a multi-process run):
//! caex-report analyze --in ex2.jsonl --table
//! caex-report analyze --in ex2.jsonl --json report.json --folded ex2.folded
//! caex-report analyze --in ex2.jsonl --folded-round 1 | flamegraph.pl
//! caex-report analyze --in ex2.jsonl --check
//! ```
//!
//! `--table` prints the per-round critical-path table (one row per
//! `(action, round)`, phase columns summing to the total); `--json`
//! writes the full report document; `--folded` writes folded flame
//! stacks consumable by `flamegraph.pl` / speedscope (`--folded-round
//! <r>` prints one resolution round's stacks to stdout); `--check`
//! verifies the causal invariants (acyclic happens-before graph, every
//! receive matched to a send, phase attribution summing exactly to
//! end-to-end latency) and exits nonzero on violation.

use caex::workloads;
use caex_net::NetConfig;
use caex_obs::causal::{self, CausalGraph};
use caex_obs::exporters::{event_from_json, event_to_json};
use caex_obs::{FlameBuilder, ObsEvent, Observer, Recorder};
use std::io::Write;
use std::path::Path;

/// Parsed command line: one subcommand, then `--name value` flags
/// (`--table` and `--check` are bare).
struct Args {
    command: String,
    map: Vec<(String, Option<String>)>,
}

const BARE_FLAGS: &[&str] = &["table", "check"];

impl Args {
    fn parse() -> Result<Args, String> {
        let mut iter = std::env::args().skip(1);
        let command = iter.next().ok_or("usage: caex-report <record|analyze> ...")?;
        let mut map = Vec::new();
        let mut pending: Option<String> = None;
        for arg in iter {
            if let Some(name) = arg.strip_prefix("--") {
                if let Some(prev) = pending.take() {
                    return Err(format!("flag --{prev} needs a value"));
                }
                if BARE_FLAGS.contains(&name) {
                    map.push((name.to_string(), None));
                } else {
                    pending = Some(name.to_string());
                }
            } else if let Some(name) = pending.take() {
                map.push((name, Some(arg)));
            } else {
                return Err(format!("unexpected positional argument `{arg}`"));
            }
        }
        if let Some(prev) = pending {
            return Err(format!("flag --{prev} needs a value"));
        }
        Ok(Args { command, map })
    }

    fn get(&self, name: &str) -> Option<&str> {
        self.map
            .iter()
            .find(|(k, _)| k == name)
            .and_then(|(_, v)| v.as_deref())
    }

    fn has(&self, name: &str) -> bool {
        self.map.iter().any(|(k, _)| k == name)
    }
}

fn record_main(args: &Args) -> Result<(), String> {
    let workload = args.get("workload").ok_or("--workload is required")?;
    let out = args.get("out").ok_or("--out is required")?;
    let mut recorder = Recorder::new();
    let scenario = workloads::by_name(workload, NetConfig::default())?.scenario;
    let _ = scenario.run_observed(&mut recorder);
    write_jsonl(Path::new(out), &recorder.events)?;
    eprintln!(
        "caex-report: recorded {} events of {workload} to {out}",
        recorder.events.len()
    );
    Ok(())
}

fn write_jsonl(path: &Path, events: &[ObsEvent]) -> Result<(), String> {
    let mut buf = String::new();
    for event in events {
        buf.push_str(&event_to_json(event).to_string());
        buf.push('\n');
    }
    std::fs::write(path, buf).map_err(|e| format!("writing {}: {e}", path.display()))
}

fn read_jsonl(path: &Path) -> Result<Vec<ObsEvent>, String> {
    let text = std::fs::read_to_string(path)
        .map_err(|e| format!("reading {}: {e}", path.display()))?;
    let mut events = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        if line.trim().is_empty() {
            continue;
        }
        let doc = caex_obs::json::parse(line)
            .map_err(|e| format!("{}:{}: bad JSON: {e:?}", path.display(), lineno + 1))?;
        let event = event_from_json(&doc)
            .map_err(|e| format!("{}:{}: bad event: {e}", path.display(), lineno + 1))?;
        events.push(event);
    }
    Ok(events)
}

/// The `--check` invariants; any violation is a hard failure.
fn check(graph: &CausalGraph) -> Result<(), String> {
    if !graph.is_acyclic() {
        return Err("happens-before graph has a cycle".into());
    }
    if !graph.unmatched_receives().is_empty() {
        return Err(format!(
            "{} receive(s) without a matching send",
            graph.unmatched_receives().len()
        ));
    }
    let paths = graph.critical_paths();
    if paths.is_empty() {
        return Err("no resolution round found in the stream".into());
    }
    for path in &paths {
        let sum: u64 = path.phase_totals().iter().map(|(_, us)| us).sum();
        if sum != path.total_us() {
            return Err(format!(
                "{}: phase durations sum to {sum}, end-to-end latency is {}",
                path.span,
                path.total_us()
            ));
        }
    }
    Ok(())
}

fn analyze_main(args: &Args) -> Result<(), String> {
    let input = args.get("in").ok_or("--in is required")?;
    let events = read_jsonl(Path::new(input))?;
    let graph = CausalGraph::build(&events);
    let paths = graph.critical_paths();
    eprintln!(
        "caex-report: {} events, {} edges, acyclic={}, unmatched_receives={}, unmatched_sends={}, rounds={}",
        events.len(),
        graph.edge_count(),
        graph.is_acyclic(),
        graph.unmatched_receives().len(),
        graph.unmatched_sends().len(),
        paths.len()
    );
    let mut produced = false;
    if let Some(out) = args.get("json") {
        let doc = causal::report_json(&graph, &paths);
        std::fs::write(out, format!("{doc}\n"))
            .map_err(|e| format!("writing {out}: {e}"))?;
        produced = true;
    }
    if args.get("folded").is_some() || args.get("folded-round").is_some() {
        let mut flame = FlameBuilder::new();
        for event in &events {
            flame.on_event(event);
        }
        if let Some(last) = events.iter().map(|e| e.at).max() {
            flame.on_run_end(last);
        }
        if let Some(out) = args.get("folded") {
            std::fs::write(out, flame.folded()).map_err(|e| format!("writing {out}: {e}"))?;
            produced = true;
        }
        // `--folded-round <r>` prints one round's folded stacks to
        // stdout (round 0 is dwell outside any resolution), for piping
        // straight into flamegraph tooling.
        if let Some(round) = args.get("folded-round") {
            let round: u32 = round
                .parse()
                .map_err(|_| format!("bad --folded-round value `{round}`"))?;
            if !flame.rounds().contains(&round) {
                return Err(format!(
                    "round {round} accumulated no dwell (rounds seen: {:?})",
                    flame.rounds()
                ));
            }
            let mut stdout = std::io::stdout().lock();
            stdout
                .write_all(flame.folded_for_round(round).as_bytes())
                .map_err(|e| format!("writing folded stacks: {e}"))?;
            produced = true;
        }
    }
    if args.has("check") {
        check(&graph).map_err(|e| format!("check failed: {e}"))?;
        eprintln!("caex-report: check passed");
        produced = true;
    }
    if args.has("table") || !produced {
        let mut stdout = std::io::stdout().lock();
        stdout
            .write_all(causal::render_table(&paths).as_bytes())
            .map_err(|e| format!("writing table: {e}"))?;
    }
    Ok(())
}

fn main() {
    let outcome = Args::parse().and_then(|args| match args.command.as_str() {
        "record" => record_main(&args),
        "analyze" => analyze_main(&args),
        other => Err(format!("unknown subcommand `{other}` (record|analyze)")),
    });
    if let Err(e) = outcome {
        eprintln!("caex-report: {e}");
        std::process::exit(1);
    }
}
