//! `compare <a.json> <b.json>`: applies each end-to-end metric's bound
//! from `BENCHMARK.json` to two results files (set `a` is the base)
//! and prints one row per (metric, workload).

use crate::report::{Catalogue, MetricDef, RunRecord};
use crate::stats::{quartiles, spread};
use caex_obs::json::{self, JsonValue};
use std::io::Write;
use std::path::Path;

/// Reads the runs of a results file.
///
/// # Errors
///
/// Reports an unreadable file, malformed JSON or a malformed record.
pub fn load(path: &Path) -> Result<Vec<RunRecord>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{}: {e}", path.display()))?;
    let doc = json::parse(&text).map_err(|e| format!("{}: {e:?}", path.display()))?;
    doc.get("runs")
        .and_then(JsonValue::as_array)
        .ok_or_else(|| format!("{}: no `runs` array", path.display()))?
        .iter()
        .map(RunRecord::from_json)
        .collect()
}

/// Loads two results files and prints their comparison to stdout.
///
/// # Errors
///
/// As [`load`]; a failed write to stdout is reported the same way.
pub fn run(cat: &Catalogue, a: &Path, b: &Path) -> Result<bool, String> {
    let (a, b) = (load(a)?, load(b)?);
    compare(cat, &a, &b, &mut std::io::stdout()).map_err(|e| format!("stdout: {e}"))
}

/// How set `b` stands against set `a` on one (metric, workload).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Every run of `b` beats every run of `a`, or the median improved
    /// by more than `a`'s own run-to-run spread.
    Better,
    /// The median moved by no more than the bound allows.
    WithinBound,
    /// The median worsened by more than the bound.
    Worse,
    /// The run-to-run spread is wider than the bound: the runs cannot
    /// tell a regression from noise.
    Unresolved,
}

impl Verdict {
    fn label(self) -> &'static str {
        match self {
            Verdict::Better => "better",
            Verdict::WithinBound => "within bound",
            Verdict::Worse => "WORSE",
            Verdict::Unresolved => "UNRESOLVED",
        }
    }
}

/// The median with the mean of the middle pair on even counts (the
/// convention of the acceptance check, which compares set medians).
fn set_median(values: &[f64]) -> f64 {
    match quartiles(values) {
        Some([_, q2, _]) => q2,
        None => values[0],
    }
}

/// Judges one (metric, workload) pair. `a` and `b` are non-empty.
#[must_use]
pub fn judge(def: &MetricDef, a: &[f64], b: &[f64]) -> (Verdict, f64, Option<f64>) {
    let bound = def.bound.expect("end-to-end metrics carry a bound");
    let (med_a, med_b) = (set_median(a), set_median(b));
    // Positive = `b` is worse, as a share of the base median.
    let worse_by = if med_a == 0.0 {
        0.0
    } else if def.higher_is_better {
        (med_a - med_b) / med_a.abs()
    } else {
        (med_b - med_a) / med_a.abs()
    };
    let beats = |x: f64, y: f64| if def.higher_is_better { x > y } else { x < y };
    let all_better = b.iter().all(|&y| a.iter().all(|&x| beats(y, x)));
    let all_worse = b.iter().all(|&y| a.iter().all(|&x| beats(x, y)));
    let wider = match (spread(a), spread(b)) {
        (Some(x), Some(y)) => Some(x.max(y)),
        (x, y) => x.or(y),
    };
    let verdict = if wider.is_some_and(|s| s > bound) {
        if all_better {
            Verdict::Better
        } else if all_worse && worse_by > bound {
            Verdict::Worse
        } else {
            Verdict::Unresolved
        }
    } else if worse_by > bound {
        Verdict::Worse
    } else if (all_better && a.len() > 1) || -worse_by > spread(a).unwrap_or(bound) {
        Verdict::Better
    } else {
        Verdict::WithinBound
    };
    (verdict, worse_by, wider)
}

fn values(runs: &[RunRecord], workload: &str, traced: bool, metric: &str) -> Vec<f64> {
    runs.iter()
        .filter(|r| r.workload == workload && r.traced == traced)
        .filter_map(|r| {
            r.metrics
                .iter()
                .find(|(n, ..)| n == metric)
                .map(|(_, v, ..)| *v)
        })
        .collect()
}

/// Prints the comparison and returns `true` when no row is worse or
/// unresolved, the exact counts are identical and every run was
/// correct.
///
/// # Errors
///
/// Propagates write errors.
pub fn compare(
    cat: &Catalogue,
    a: &[RunRecord],
    b: &[RunRecord],
    out: &mut dyn Write,
) -> std::io::Result<bool> {
    let mut ok = true;
    writeln!(
        out,
        "{:<18} {:<13} {:>14} {:>4} {:>14} {:>4} {:>9} {:>7} {:>8}  verdict",
        "metric", "workload", "a (base)", "n", "b", "n", "b/a", "bound", "spread"
    )?;
    for def in &cat.end_to_end {
        for w in &cat.workloads {
            let (va, vb) = (
                values(a, w, false, &def.name),
                values(b, w, false, &def.name),
            );
            if va.is_empty() || vb.is_empty() {
                writeln!(out, "{:<18} {:<13} missing from one set", def.name, w)?;
                ok = false;
                continue;
            }
            let (verdict, _, wider) = judge(def, &va, &vb);
            ok &= matches!(verdict, Verdict::Better | Verdict::WithinBound);
            let (ma, mb) = (set_median(&va), set_median(&vb));
            writeln!(
                out,
                "{:<18} {:<13} {:>14.4} {:>4} {:>14.4} {:>4} {:>9.4} {:>6.1}% {:>8}  {}",
                def.name,
                w,
                ma,
                va.len(),
                mb,
                vb.len(),
                mb / ma,
                def.bound.unwrap_or(0.0) * 100.0,
                wider.map_or("n/a".to_owned(), |s| format!("{:.1}%", s * 100.0)),
                verdict.label()
            )?;
        }
    }

    // Counts that repeat exactly on the fleets, which run in virtual
    // time: the §4.4 law fixes messages per action whatever the seed;
    // virtual-time latency is a function of the seed alone.
    let fleets = cat.workloads.iter().filter(|w| {
        crate::inputs::workload(w).is_some_and(|w| w.kind == crate::inputs::Kind::Fleet)
    });
    for w in fleets {
        let mut msgs = values(a, w, false, "msgs_per_action");
        msgs.extend(values(b, w, false, "msgs_per_action"));
        let identical = msgs.windows(2).all(|p| p[0] == p[1]);
        ok &= identical;
        writeln!(
            out,
            "exact msgs_per_action    {w:<13} {}",
            if identical { "identical" } else { "DIFFERS" }
        )?;
        for ra in a.iter().filter(|r| r.traced && &r.workload == w) {
            for rb in b
                .iter()
                .filter(|r| r.traced && &r.workload == w && r.seed == ra.seed)
            {
                let of =
                    |r: &RunRecord| values(std::slice::from_ref(r), w, true, "sim.resolve_p50_us");
                let identical = of(ra) == of(rb);
                ok &= identical;
                writeln!(
                    out,
                    "exact sim.resolve_p50_us {w:<13} seed {} {}",
                    ra.seed,
                    if identical { "identical" } else { "DIFFERS" }
                )?;
            }
        }
    }
    for r in a.iter().chain(b) {
        if !r.correct {
            writeln!(
                out,
                "INCORRECT {} seed {} trace {}: {} of {} operations failed",
                r.workload, r.seed, r.traced, r.failed, r.attempted
            )?;
            ok = false;
        }
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn def(higher: bool, bound: f64) -> MetricDef {
        MetricDef {
            name: "m".into(),
            unit: "u".into(),
            higher_is_better: higher,
            bound: Some(bound),
        }
    }

    #[test]
    fn verdicts_follow_bound_and_spread() {
        let lower = def(false, 0.10);
        let steady = [100.0, 101.0, 99.0, 100.0, 100.5];
        // Within: +3 % on a 10 % bound.
        assert_eq!(
            judge(&lower, &steady, &[103.0, 102.0, 104.0, 103.0, 103.5]).0,
            Verdict::WithinBound
        );
        // Worse: +20 %.
        assert_eq!(
            judge(&lower, &steady, &[120.0, 121.0, 119.0, 120.0, 120.0]).0,
            Verdict::Worse
        );
        // Better: every run beats every base run.
        assert_eq!(
            judge(&lower, &steady, &[90.0, 91.0, 92.0, 90.5, 91.5]).0,
            Verdict::Better
        );
        // Unresolved: the base's own spread is wider than the bound.
        let noisy = [100.0, 140.0, 70.0, 120.0, 85.0];
        assert_eq!(
            judge(&lower, &noisy, &[105.0, 95.0, 130.0, 80.0, 100.0]).0,
            Verdict::Unresolved
        );
        // ... unless every run of b beats every run of a.
        assert_eq!(
            judge(&lower, &noisy, &[60.0, 50.0, 65.0, 55.0, 58.0]).0,
            Verdict::Better
        );
        // Direction flips for higher-is-better metrics.
        let higher = def(true, 0.10);
        assert_eq!(
            judge(&higher, &steady, &[80.0, 81.0, 79.0, 80.0, 80.0]).0,
            Verdict::Worse
        );
        assert_eq!(
            judge(&higher, &steady, &[120.0, 121.0, 119.0, 120.0, 120.0]).0,
            Verdict::Better
        );
    }

    #[test]
    fn single_runs_fall_back_to_the_bound_alone() {
        let lower = def(false, 0.10);
        let (verdict, worse_by, wider) = judge(&lower, &[100.0], &[105.0]);
        assert_eq!((verdict, wider), (Verdict::WithinBound, None));
        assert!((worse_by - 0.05).abs() < 1e-12);
        assert_eq!(judge(&lower, &[100.0], &[111.0]).0, Verdict::Worse);
        assert_eq!(judge(&lower, &[100.0], &[80.0]).0, Verdict::Better);
    }
}
