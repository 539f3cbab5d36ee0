//! The `caex-lint` CLI: lints every built-in workload family and exits
//! nonzero when any deny-level diagnostic fires.
//!
//! ```text
//! cargo run -p caex-lint --bin caex-lint            # lint the built-ins
//! cargo run -p caex-lint --bin caex-lint -- --list  # list all lint codes
//! cargo run -p caex-lint --bin caex-lint -- --broken  # demo on a broken registry
//! cargo run --release -p caex-lint -- check --model  # model-check the built-ins
//! ```
//!
//! Flags:
//!
//! - `--list` — print every lint code with its default severity;
//! - `--deny-warnings` — escalate warnings to errors;
//! - `--allow CODE` / `--warn CODE` / `--deny CODE` — per-lint level
//!   overrides (stable `CAEXnnn` codes or kebab-case names);
//! - `--broken` — lint a deliberately broken declaration set instead of
//!   the built-ins (demonstrates the deny lints; exits nonzero);
//! - `check --model` — after the static pass, model-check the built-in
//!   scenarios exhaustively (`CAEX015`–`CAEX018`), sweep resolver
//!   crashes through Examples 1 and 2, cross-check every verdict
//!   against the dynamic seed sweep, and run the `CAEX019`
//!   Campbell–Randell domino analysis. Exits nonzero on any violation,
//!   unconfirmed counterexample, or checker/simulator disagreement.
//!   Run it in release: the exhaustive sweeps are compute-bound.

use caex::explore::{explore, Expect};
use caex::workloads;
use caex_action::{ActionId, ActionScope, HandlerTable};
use caex_lint::{LintCode, LintConfig, LintReport, Linter, ModelLimits, ModelOptions};
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::{chain_tree, ExceptionId, ReducedTree};
use std::process::ExitCode;
use std::sync::Arc;

fn main() -> ExitCode {
    let mut config = LintConfig::new();
    let mut list = false;
    let mut broken = false;
    let mut model = false;

    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        match arg.as_str() {
            // `check` is the (optional) subcommand word: `check --model`.
            "check" => {}
            "--list" => list = true,
            "--broken" => broken = true,
            "--model" => model = true,
            "--deny-warnings" => config = config.deny_warnings(),
            "--allow" | "--warn" | "--deny" => {
                let Some(value) = args.next() else {
                    eprintln!("error: {arg} requires a lint code");
                    return ExitCode::from(2);
                };
                let Some(code) = LintCode::parse(&value) else {
                    eprintln!("error: unknown lint code `{value}` (try --list)");
                    return ExitCode::from(2);
                };
                config = match arg.as_str() {
                    "--allow" => config.allow(code),
                    "--warn" => config.warn(code),
                    _ => config.deny(code),
                };
            }
            "--help" | "-h" => {
                println!(
                    "caex-lint: static protocol analysis over the built-in workloads\n\
                     \n\
                     usage: caex-lint [check] [--model] [--list] [--broken] [--deny-warnings]\n\
                     \x20                [--allow CODE] [--warn CODE] [--deny CODE]..."
                );
                return ExitCode::SUCCESS;
            }
            other => {
                eprintln!("error: unknown argument `{other}` (try --help)");
                return ExitCode::from(2);
            }
        }
    }

    if list {
        for code in LintCode::ALL {
            println!(
                "{}  {:<26} {}",
                code.code(),
                code.name(),
                code.default_severity()
            );
        }
        return ExitCode::SUCCESS;
    }

    let linter = Linter::with_config(config);
    if broken {
        let report = lint_broken(&linter);
        print!("{}", report.render());
        return exit_for(&report);
    }

    let mut failed = false;
    for (name, report) in lint_builtins(&linter) {
        println!("== {name}");
        print!("{}", report.render());
        failed |= report.has_denials();
    }
    if model {
        failed |= !model_check_builtins(&linter);
    }
    if failed {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// The `check --model` battery: exhaustive model checking of the
/// small built-in scenarios, resolver-crash sweeps through the paper's
/// Examples 1 and 2, a dynamic cross-check of every verdict, and the
/// Campbell–Randell domino analysis. Returns `true` when everything
/// agrees and nothing fired.
fn model_check_builtins(linter: &Linter) -> bool {
    let cfg = NetConfig::default;
    // (name, crash_sweep, scenario builder). The builder is seedable so
    // the same family feeds both the checker and the dynamic sweep.
    type Build = Box<dyn Fn(u64) -> caex::Scenario>;
    let families: Vec<(&str, bool, Build)> = vec![
        (
            "case1(3)",
            false,
            Box::new(|seed| workloads::case1(3, NetConfig::default().with_seed(seed)).scenario),
        ),
        (
            "case2(3)",
            false,
            Box::new(|seed| workloads::case2(3, NetConfig::default().with_seed(seed)).scenario),
        ),
        (
            "fig3",
            false,
            Box::new(|seed| workloads::fig3(NetConfig::default().with_seed(seed)).scenario),
        ),
        (
            "example1",
            true,
            Box::new(|seed| workloads::example1(NetConfig::default().with_seed(seed)).0.scenario),
        ),
        (
            "example2",
            true,
            Box::new(|seed| workloads::example2(NetConfig::default().with_seed(seed)).0.scenario),
        ),
    ];

    let mut ok = true;
    for (name, sweep, build) in families {
        let options = ModelOptions {
            crash_sweep: sweep,
            // Example 2's reduced state space is ~1.1M states; give the
            // battery comfortable headroom so every family is exhaustive.
            limits: ModelLimits {
                max_states: 2_000_000,
                max_trace: 4_096,
            },
        };
        let started = std::time::Instant::now();
        let (report, model) = linter.model_check(&build(0), &options);
        let elapsed = started.elapsed();
        println!(
            "== model:{name}: {} states, {} transitions, {} crash points, {:?}{}",
            model.stats.states,
            model.stats.transitions,
            model.crash_points,
            elapsed,
            if model.complete { "" } else { " (BOUNDED)" },
        );
        if let Some(reason) = &model.skipped {
            println!("   SKIPPED: {reason}");
            ok = false;
            continue;
        }
        print!("{}", report.render());
        if !model.violations.is_empty() {
            ok = false;
        }
        if model.violations.iter().any(|v| !v.replay_confirmed) {
            println!("   UNCONFIRMED counterexample: checker nondeterminism");
            ok = false;
        }
        if !model.complete {
            println!("   state budget exhausted before exhaustion: raise ModelLimits");
            ok = false;
        }
        // Cross-check against the dynamic engine: a checker-clean
        // family must be clean under the seed sweep too (the checker
        // explores a superset of the simulator's schedules).
        let sweep_outcome = explore(0..16, Expect::Clean, &build);
        if model.is_clean() && !sweep_outcome.is_ok() {
            println!(
                "   DISAGREEMENT: checker-clean but the dynamic sweep violated \
                 invariants: {:?}",
                sweep_outcome.violations
            );
            ok = false;
        }
        println!(
            "   dynamic cross-check: {} seeds, {}",
            sweep_outcome.runs,
            if sweep_outcome.is_ok() { "agree" } else { "violations (see above)" }
        );
    }

    // The legacy configuration: Example 1 with resolver failover
    // switched off is the paper's literal §4.2 machine. The crash
    // sweep must *find* CAEX018 here — the vulnerability is the reason
    // failover exists, so a quiet sweep would mean the checker lost
    // its teeth, not that the legacy machine became safe.
    {
        let options = ModelOptions {
            crash_sweep: true,
            limits: ModelLimits {
                max_states: 2_000_000,
                max_trace: 4_096,
            },
        };
        let scenario = workloads::example1(NetConfig::default())
            .0
            .scenario
            .with_failover(false);
        let started = std::time::Instant::now();
        let (_report, model) = linter.model_check(&scenario, &options);
        println!(
            "== model:example1(failover off): {} states, {} transitions, {} crash points, {:?}",
            model.stats.states,
            model.stats.transitions,
            model.crash_points,
            started.elapsed(),
        );
        let fired = model
            .violations
            .iter()
            .any(|v| v.code == LintCode::ModelCrashVulnerable);
        if fired {
            println!("   CAEX018 fired as expected: the legacy machine is crash-vulnerable");
        } else {
            println!("   MISSING CAEX018: the failover-off sweep came back quiet");
            ok = false;
        }
    }

    // CAEX019: the §3.3 domino must fire (and escalate) on interleaved
    // reduced trees over a chain, and stay quiet with full handlers.
    let tree = chain_tree(8);
    let interleaved = caex::cr::interleaved_parties(&tree, 8, 2);
    // Raised by party 0 (which handles it): party 1 cannot, climbs,
    // and the climb ping-pongs all the way down to the root.
    let raise = [(NodeId::new(0), ExceptionId::new(8))];
    let domino = linter.lint_cr(&tree, &interleaved, &raise);
    println!("== model:cr-domino (interleaved chain of 8, 2 parties)");
    print!("{}", domino.render());
    if !domino.fired(LintCode::CrDominoDepth) {
        println!("   MISSING: the interleaved worst case must fire CAEX019");
        ok = false;
    }
    let full = vec![ReducedTree::full(&tree); 2];
    let quiet = linter.lint_cr(&tree, &full, &raise);
    if !quiet.is_clean() {
        println!("   FALSE POSITIVE: full handler sets must not domino");
        print!("{}", quiet.render());
        ok = false;
    }
    // Cross-check the static prediction against the executed CR
    // baseline: the domino the lint predicts is the one cr::run counts.
    let report = caex::cr::run(
        2,
        Arc::new(chain_tree(8)),
        caex::cr::interleaved_parties(&chain_tree(8), 8, 2),
        &raise,
        cfg(),
    );
    let committed = report.committed.map_or_else(|| "nothing".to_owned(), |e| e.to_string());
    if report.committed != Some(ExceptionId::ROOT) || report.raised_total < 8 {
        println!(
            "   DISAGREEMENT: CAEX019 predicts a full domino but cr::run raised {} \
             and committed {}",
            report.raised_total, committed
        );
        ok = false;
    }
    println!(
        "   dynamic cross-check: cr::run raised {} classes, committed {} — agree",
        report.raised_total, committed
    );
    ok
}

/// Lints every built-in workload family's scenario.
fn lint_builtins(linter: &Linter) -> Vec<(&'static str, LintReport)> {
    let cfg = NetConfig::default;
    vec![
        (
            "general(6,3,2)",
            linter.lint_scenario(&workloads::general(6, 3, 2, cfg()).scenario),
        ),
        (
            "case1(4)",
            linter.lint_scenario(&workloads::case1(4, cfg()).scenario),
        ),
        (
            "case2(4)",
            linter.lint_scenario(&workloads::case2(4, cfg()).scenario),
        ),
        (
            "case3(8)",
            linter.lint_scenario(&workloads::case3(8, cfg()).scenario),
        ),
        (
            "fig3",
            linter.lint_scenario(&workloads::fig3(cfg()).scenario),
        ),
        (
            "example1",
            linter.lint_scenario(&workloads::example1(cfg()).0.scenario),
        ),
        (
            "example2",
            linter.lint_scenario(&workloads::example2(cfg()).0.scenario),
        ),
    ]
}

/// A deliberately broken declaration set: a flat raisable pair
/// (CAEX001), a nested scope leaking a stranger (CAEX007), a declared
/// raisable outside the tree (CAEX009) and a partial handler table
/// (CAEX006, CAEX008).
fn lint_broken(linter: &Linter) -> LintReport {
    use caex_tree::TreeBuilder;

    // Two sibling subtrees directly under the root: raisables from
    // different subtrees only meet at the universal exception.
    let mut b = TreeBuilder::new("universal_exception");
    let io = b.child_of_root("io_exception").expect("fresh name");
    let mem = b.child_of_root("memory_exception").expect("fresh name");
    let tree = Arc::new(b.build().expect("valid tree"));

    let top = ActionScope::top_level("broken_top", (0..3).map(NodeId::new), Arc::clone(&tree))
        .with_declared_exceptions([io, mem, ExceptionId::new(42)]);
    // O7 does not participate in the parent.
    let nested = ActionScope::nested(
        "broken_nested",
        [NodeId::new(1), NodeId::new(7)],
        Arc::clone(&tree),
        ActionId::new(0),
    );
    let scopes = vec![(ActionId::new(0), top), (ActionId::new(1), nested)];
    let mut report = linter.lint_scopes(&scopes);

    // A handler table that only covers `io`, bound to a nested-action
    // participant, with no abortion handler.
    let mut reg = caex_action::ActionRegistry::new();
    let a0 = reg
        .declare(ActionScope::top_level(
            "broken_top",
            (0..3).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid");
    let a1 = reg
        .declare(ActionScope::nested(
            "broken_nested",
            [NodeId::new(1)],
            Arc::clone(&tree),
            a0,
        ))
        .expect("valid");
    let mut table = HandlerTable::new(Arc::clone(&tree));
    table.on(io, SimTime::ZERO, |_| {
        caex_action::HandlerOutcome::Recovered
    });
    report.merge(linter.lint_handlers(&reg, [(NodeId::new(1), a1, &table)]));

    // A scenario raising outside the tree entirely.
    let scenario = caex::Scenario::new(Arc::new(reg))
        .enter_all_at(SimTime::ZERO, a0)
        .raise_at(
            SimTime::from_micros(5),
            NodeId::new(0),
            caex_tree::Exception::new(ExceptionId::new(42)),
        );
    report.merge(linter.lint_scenario(&scenario));
    report.dedup();
    report
}

fn exit_for(report: &LintReport) -> ExitCode {
    if report.has_denials() {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}
