//! The suite mode: every workload, untraced then traced, each run in
//! a process of its own (so `peak_rss_mb` and CPU time belong to one
//! workload), gathered into `results-<set>.json`.

use crate::compare;
use crate::inputs::WORKLOADS;
use crate::report::{catalogue, RunRecord};
use crate::sys;
use caex_obs::json::{self, JsonValue};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

/// Settings of a suite invocation.
#[derive(Debug)]
pub struct SuiteOpts {
    /// Seed of the first run of each set; run `k` uses `seed + k`.
    pub seed: u64,
    /// Measurement window per run.
    pub seconds: f64,
    /// About a twentieth of the size, same checks.
    pub smoke: bool,
    /// Runs per workload in each set.
    pub runs: u32,
    /// Sets; with two or more, the first and last are compared.
    pub repeat: u32,
    /// Output directory.
    pub out_dir: PathBuf,
}

/// The pinned build profile, recorded with the results (the manifest
/// is the source of truth; this string is for the reader).
const PROFILE: &str = "release: opt-level=3 lto=thin codegen-units=1";

fn git_commit() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .stderr(Stdio::null())
        .output()
        .ok()
        .filter(|o| o.status.success())
        .and_then(|o| String::from_utf8(o.stdout).ok())
        .map_or_else(|| "unknown".to_owned(), |s| s.trim().to_owned())
}

/// Runs one workload in a child process and reads its record back.
fn run_child(
    opts: &SuiteOpts,
    workload: &str,
    seed: u64,
    traced: bool,
) -> Result<RunRecord, String> {
    let record_path = opts.out_dir.join("run-record.json");
    let exe = std::env::current_exe().map_err(|e| format!("own path: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", workload, "--seed", &seed.to_string()])
        .args(["--seconds", &opts.seconds.to_string()])
        .args(["--trace", if traced { "1" } else { "0" }])
        .arg("--out-dir")
        .arg(&opts.out_dir)
        .arg("--record")
        .arg(&record_path)
        .stdout(Stdio::null());
    if opts.smoke {
        cmd.arg("--smoke");
    }
    let status = cmd.status().map_err(|e| format!("spawn {workload}: {e}"))?;
    let text = std::fs::read_to_string(&record_path)
        .map_err(|e| format!("{workload} (exit {status}) left no record: {e}"))?;
    let _ = std::fs::remove_file(&record_path);
    let record = RunRecord::from_json(
        &json::parse(&text).map_err(|e| format!("{workload} record: {e:?}"))?,
    )?;
    if !status.success() && record.correct {
        return Err(format!("{workload} exited with {status}"));
    }
    Ok(record)
}

fn results_doc(opts: &SuiteOpts, runs: &[RunRecord]) -> JsonValue {
    let meta = JsonValue::Obj(vec![
        ("seed".into(), JsonValue::num(opts.seed)),
        ("seconds".into(), JsonValue::Num(opts.seconds)),
        ("smoke".into(), JsonValue::Bool(opts.smoke)),
        (
            "runs_per_workload".into(),
            JsonValue::num(u64::from(opts.runs)),
        ),
        ("git_commit".into(), JsonValue::str(git_commit())),
        ("nproc".into(), JsonValue::num(sys::nproc() as u64)),
        ("profile".into(), JsonValue::str(PROFILE)),
    ]);
    JsonValue::Obj(vec![
        ("meta".into(), meta),
        (
            "runs".into(),
            JsonValue::Arr(runs.iter().map(RunRecord::to_json).collect()),
        ),
    ])
}

fn run_set(opts: &SuiteOpts, path: &Path) -> Result<bool, String> {
    let mut runs = Vec::new();
    let mut all_correct = true;
    for k in 0..opts.runs {
        for w in &WORKLOADS {
            for traced in [false, true] {
                let record = run_child(opts, w.name, opts.seed + u64::from(k), traced)?;
                record
                    .print_table(&mut std::io::stdout())
                    .map_err(|e| e.to_string())?;
                all_correct &= record.correct;
                runs.push(record);
            }
        }
    }
    std::fs::write(path, results_doc(opts, &runs).to_string())
        .map_err(|e| format!("{}: {e}", path.display()))?;
    println!("results written to {}", path.display());
    Ok(all_correct)
}

/// Runs the suite; the exit code is non-zero when any check failed,
/// any run could not be made, or the comparison found a row worse or
/// unresolved.
#[must_use]
pub fn run(opts: &SuiteOpts) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&opts.out_dir) {
        eprintln!("error: {}: {e}", opts.out_dir.display());
        return ExitCode::from(2);
    }
    let path = |set: u32| opts.out_dir.join(format!("results-{set}.json"));
    let mut ok = true;
    for set in 1..=opts.repeat {
        match run_set(opts, &path(set)) {
            Ok(correct) => ok &= correct,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if opts.repeat >= 2 {
        match compare::run(catalogue(), &path(1), &path(opts.repeat)) {
            Ok(within) => ok &= within,
            Err(e) => {
                eprintln!("error: {e}");
                return ExitCode::FAILURE;
            }
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
