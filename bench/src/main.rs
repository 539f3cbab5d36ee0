//! The repo's wall-clock benchmark: fleet throughput, mesh resolution
//! latency, and a per-layer ladder that adds up to both. See
//! `bench/README.md` for the metric glossary and how to read results.
//!
//! ```text
//! caex-wallbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one run of one workload; the last stdout line is the result JSON
//! caex-wallbench [--seed <n>] [--seconds <s>] [--smoke] [--runs <k>] [--repeat <r>]
//!     every workload, untraced then traced, one process each; writes
//!     results-<set>.json and, with --repeat 2, compares the two sets
//! caex-wallbench compare <a.json> <b.json>
//! ```

mod checks;
mod compare;
mod fleet;
mod inputs;
mod ladder;
mod mesh;
mod report;
mod stats;
mod suite;
mod sys;
mod trace;

use report::RunRecord;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

/// Settings of one run of one workload.
#[derive(Debug, Clone)]
pub struct RunOpts {
    /// Every generated input derives from this.
    pub seed: u64,
    /// Length of the measurement window.
    pub seconds: f64,
    /// Every workload at about a twentieth of its size; same checks.
    pub smoke: bool,
    /// Per-layer run with the benchmark's spans on.
    pub traced: bool,
    /// Where trace files, socket files and results go.
    pub out_dir: PathBuf,
}

impl RunOpts {
    /// How often set-up is repeated; `setup_s` is the median.
    #[must_use]
    pub fn setups(&self) -> u64 {
        if self.smoke {
            1
        } else {
            5
        }
    }

    /// Time budget of one isolated ladder rung.
    #[must_use]
    pub fn rung_budget(&self) -> Duration {
        Duration::from_millis(if self.smoke { 5 } else { 150 })
    }

    /// Writes `trace-<workload>.json` into the output directory.
    ///
    /// # Panics
    ///
    /// Panics when the file cannot be written: a traced run without
    /// its trace is not a result.
    pub fn write_trace(&self, workload: &str, doc: &caex_obs::JsonValue) {
        std::fs::create_dir_all(&self.out_dir).expect("create output directory");
        let path = self.out_dir.join(format!("trace-{workload}.json"));
        std::fs::write(&path, doc.to_string()).expect("write trace file");
        eprintln!("trace written to {}", path.display());
    }
}

/// Runs one workload once.
#[must_use]
pub fn run_one(w: &'static inputs::Workload, opts: &RunOpts) -> RunRecord {
    let (tally, measured) = match (w.kind, opts.traced) {
        (inputs::Kind::Fleet, false) => fleet::run_untraced(w, opts),
        (inputs::Kind::Fleet, true) => fleet::run_traced(w, opts),
        (_, false) => mesh::run_untraced(w, opts),
        (_, true) => mesh::run_traced(w, opts),
    };
    RunRecord::new(w, opts, tally, &measured)
}

/// Parsed command line of the run and suite modes.
#[derive(Debug)]
struct Args {
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    runs: u32,
    repeat: u32,
    out_dir: PathBuf,
    record: Option<PathBuf>,
}

const USAGE: &str = "usage: caex-wallbench [--workload <name>] [--seed <u64>] [--seconds <s>] \
[--trace [0|1]] [--smoke] [--runs <k>] [--repeat <r>] [--out-dir <dir>]\n       \
caex-wallbench compare <a.json> <b.json>";

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: None,
        trace: false,
        smoke: false,
        runs: 1,
        repeat: 1,
        out_dir: PathBuf::from("bench/out"),
        record: None,
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{flag} needs {what}"))
        };
        fn num<T: std::str::FromStr>(flag: &str, v: &str) -> Result<T, String> {
            v.parse()
                .map_err(|_| format!("{flag}: `{v}` is not a valid number"))
        }
        match flag.as_str() {
            "--workload" => args.workload = Some(value("a workload name")?),
            "--seed" => args.seed = num(flag, &value("a u64")?)?,
            "--seconds" => {
                let s: f64 = num(flag, &value("a number of seconds")?)?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds must be in (0, 600], got {s}"));
                }
                args.seconds = Some(s);
            }
            "--trace" => {
                // `--trace` alone or `--trace 0|1`.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            "--smoke" => args.smoke = true,
            "--runs" => args.runs = num(flag, &value("a count")?)?,
            "--repeat" => args.repeat = num(flag, &value("a count")?)?,
            "--out-dir" => args.out_dir = PathBuf::from(value("a directory")?),
            "--record" => args.record = Some(PathBuf::from(value("a file")?)),
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if args.runs == 0 || args.repeat == 0 || args.runs > 100 || args.repeat > 100 {
        return Err("--runs and --repeat must be between 1 and 100".into());
    }
    Ok(args)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, a, b] = argv.as_slice() else {
            eprintln!("{USAGE}");
            return ExitCode::from(2);
        };
        return match compare::run(report::catalogue(), a.as_ref(), b.as_ref()) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::FAILURE,
            Err(e) => {
                eprintln!("error: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let default_seconds = if args.smoke {
        0.4
    } else {
        report::catalogue().run_seconds
    };
    let seconds = args.seconds.unwrap_or(default_seconds);

    let Some(name) = &args.workload else {
        return suite::run(&suite::SuiteOpts {
            seed: args.seed,
            seconds,
            smoke: args.smoke,
            runs: args.runs,
            repeat: args.repeat,
            out_dir: args.out_dir,
        });
    };
    let Some(w) = inputs::workload(name) else {
        let known: Vec<&str> = inputs::WORKLOADS.iter().map(|w| w.name).collect();
        eprintln!(
            "error: unknown workload `{name}` (known: {})",
            known.join(", ")
        );
        return ExitCode::from(2);
    };
    let opts = RunOpts {
        seed: args.seed,
        seconds,
        smoke: args.smoke,
        traced: args.trace,
        out_dir: args.out_dir,
    };
    let record = run_one(w, &opts);
    record
        .print_table(&mut std::io::stderr())
        .expect("write to stderr");
    if let Some(path) = &args.record {
        std::fs::write(path, record.to_json().to_string()).expect("write run record");
    }
    // The result line goes last, whatever else was printed.
    println!("{}", record.result_line());
    if record.correct {
        ExitCode::SUCCESS
    } else {
        eprintln!(
            "error: {} of {} operations failed a check",
            record.failed, record.attempted
        );
        ExitCode::FAILURE
    }
}
