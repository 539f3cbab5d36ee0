//! Integration fixtures for the model checker (`CAEX015`–`CAEX019`)
//! and the fix-it engine, plus the checker-vs-explorer agreement
//! property: a lint-clean scenario family that the bounded checker
//! exhaustively verifies must also run clean through the dynamic
//! seed sweep — any divergence is a bug in one of the two.

use caex::explore::{explore, Expect};
use caex::{workloads, Scenario};
use caex_action::{ActionRegistry, ActionScope, HandlerOutcome, HandlerTable};
use caex_lint::{LintCode, Linter, ModelLimits, ModelOptions, Severity};
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId, ReducedTree, TreeBuilder, TreeEdit};
use proptest::prelude::*;
use std::sync::Arc;

fn two_node_scenario(raises: &[(u32, u32)]) -> Scenario {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level("A", (0..2).map(NodeId::new), tree))
        .expect("valid scope");
    let mut scenario = Scenario::new(Arc::new(reg)).enter_all_at(SimTime::ZERO, a);
    for &(object, exc) in raises {
        scenario = scenario.raise_at(
            SimTime::from_micros(5),
            NodeId::new(object),
            Exception::new(ExceptionId::new(exc)),
        );
    }
    scenario
}

// -------------------------------------------------------------------
// CAEX015–CAEX018 fixtures.
// -------------------------------------------------------------------

#[test]
fn caex015_deadlock_fires_with_confirmed_counterexample() {
    // Two objects enter and nothing ever completes or raises: every
    // schedule quiesces with both stuck inside the action.
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level("A", (0..2).map(NodeId::new), tree))
        .expect("valid scope");
    let scenario = Scenario::new(Arc::new(reg)).enter_all_at(SimTime::ZERO, a);
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::default());
    assert!(lint.fired(LintCode::ModelDeadlock), "{}", lint.render());
    assert!(lint.has_denials(), "CAEX015 denies by default");
    assert!(!model.violations.is_empty());
    for v in &model.violations {
        assert_eq!(v.code, LintCode::ModelDeadlock);
        assert!(v.replay_confirmed, "counterexample must replay: {v:?}");
        assert!(!v.trace.is_empty());
    }
}

#[test]
fn caex016_nested_elimination_still_commits() {
    // The closest the protocol comes to an unresolved raise: a nested
    // resolution eliminated by an outer one (§4.1 "empty LE, LO, LP").
    // The raise in the nested action never commits there — but the
    // outer resolution must, so `CAEX016` stays quiet. The lint exists
    // as a tripwire: the engine keeps a raise pinned to a live
    // resolution until some commit or desertion accounts for it.
    let tree = Arc::new(chain_tree(4));
    let mut reg = ActionRegistry::new();
    let a0 = reg
        .declare(ActionScope::top_level(
            "A0",
            (0..3).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid scope");
    let a1 = reg
        .declare(ActionScope::nested(
            "A1",
            (1..3).map(NodeId::new),
            Arc::clone(&tree),
            a0,
        ))
        .expect("valid scope");
    let scenario = Scenario::new(Arc::new(reg))
        .enter_all_at(SimTime::ZERO, a0)
        .enter_at(SimTime::from_micros(1), NodeId::new(1), a1)
        .enter_at(SimTime::from_micros(1), NodeId::new(2), a1)
        .raise_at(
            SimTime::from_micros(5),
            NodeId::new(1),
            Exception::new(ExceptionId::new(3)),
        )
        .raise_at(
            SimTime::from_micros(5),
            NodeId::new(0),
            Exception::new(ExceptionId::new(1)),
        );
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::default());
    assert!(
        !lint.fired(LintCode::ModelUnresolved),
        "every raise is accounted for: {}",
        lint.render()
    );
    assert!(model.complete, "small scope must be exhaustive: {model:?}");
    assert!(
        model.commits.iter().any(|&(action, _)| action == a0),
        "the outer action commits on every path: {model:?}"
    );
}

#[test]
fn caex017_fires_when_a_resolver_group_outvotes_the_election() {
    // With a resolver group of 2 and two distinct raisers, the
    // runner-up in the §4.2 election also commits — the checker flags
    // the commit whose resolver is not the max raiser.
    let scenario = two_node_scenario(&[(0, 1), (1, 2)]).with_resolver_group(2);
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::default());
    assert!(lint.fired(LintCode::ModelWrongResolution), "{}", lint.render());
    let fired: Vec<_> = model
        .violations
        .iter()
        .filter(|v| v.code == LintCode::ModelWrongResolution)
        .collect();
    assert!(!fired.is_empty());
    for v in fired {
        assert!(v.replay_confirmed, "counterexample must replay: {v:?}");
        assert!(v.detail.contains("election"), "{}", v.detail);
    }
}

#[test]
fn caex018_crash_sweep_proves_survivability() {
    // §4.5 survivability, by exhaustion: crash the elected resolver
    // after every step of the canonical run and verify the survivors
    // still quiesce normally on every post-crash interleaving. Before
    // the crash-recovery extension (resolved-class memory plus the
    // deserter-gated Commit rebroadcast in `Participant::on_msg`),
    // crashing the resolver between two Commit deliveries orphaned the
    // peers that had not yet received it — a real CAEX018 with a
    // 59-step counterexample on the paper's Example 2. This fixture
    // pins the fix: the sweep must now come back clean.
    let scenario = two_node_scenario(&[(0, 1), (1, 2)]);
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::with_crash_sweep());
    assert!(
        !lint.fired(LintCode::ModelCrashVulnerable),
        "{}",
        lint.render()
    );
    assert!(model.verified(), "exhaustive and clean: {model:?}");
    // The exact size of the explored space: a change to how a crash
    // reaches the survivors, or to what they do with it, moves these.
    assert_eq!(
        (
            model.stats.states,
            model.stats.transitions,
            model.crash_points
        ),
        (66, 71, 10),
        "{model:?}"
    );
}

#[test]
fn caex018_crash_sweep_of_example1_is_pinned() {
    // The smallest built-in family the `check --model` battery sweeps
    // for crashes, at its exact counts. Example 2, the other one, is
    // ~1.1M states: too slow for a debug test, so only the battery
    // prints its counts.
    let scenario = workloads::example1(NetConfig::default()).0.scenario;
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::with_crash_sweep());
    assert!(
        !lint.fired(LintCode::ModelCrashVulnerable),
        "{}",
        lint.render()
    );
    assert!(model.verified(), "exhaustive and clean: {model:?}");
    assert_eq!(
        (
            model.stats.states,
            model.stats.transitions,
            model.crash_points
        ),
        (238, 269, 15),
        "{model:?}"
    );
}

#[test]
fn caex018_fires_when_failover_is_disabled() {
    // The same scenario with the failover machinery switched off is
    // the paper's literal §4.2 machine: a crash of the elected
    // resolver mid-resolution leaves the survivor waiting on it
    // forever. The sweep must rediscover that orphaned-survivor
    // deadlock — it is the configuration that motivates resolver
    // failover, and the contrast with
    // `caex018_crash_sweep_proves_survivability` is the trust chain
    // from CAEX018 to the failover design.
    let scenario = two_node_scenario(&[(0, 1), (1, 2)]).with_failover(false);
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::with_crash_sweep());
    assert!(
        lint.fired(LintCode::ModelCrashVulnerable),
        "failover-off must be crash-vulnerable: {}",
        lint.render()
    );
    let fired: Vec<_> = model
        .violations
        .iter()
        .filter(|v| v.code == LintCode::ModelCrashVulnerable)
        .collect();
    assert!(!fired.is_empty());
    for v in fired {
        assert!(v.replay_confirmed, "counterexample must replay: {v:?}");
    }
}

#[test]
fn caex018_severity_metadata_is_deny() {
    assert_eq!(LintCode::ModelCrashVulnerable.code(), "CAEX018");
    assert_eq!(
        LintCode::ModelCrashVulnerable.default_severity(),
        Severity::Deny
    );
}

// -------------------------------------------------------------------
// CAEX019: the Campbell–Randell domino.
// -------------------------------------------------------------------

#[test]
fn caex019_interleaved_chain_dominoes_to_the_root() {
    let tree = chain_tree(8);
    let reduced = caex::cr::interleaved_parties(&tree, 8, 2);
    let report = Linter::new().lint_cr(&tree, &reduced, &[(NodeId::new(0), ExceptionId::new(8))]);
    assert!(report.fired(LintCode::CrDominoDepth), "{}", report.render());
    assert!(
        report.has_denials(),
        "a domino reaching the root destroys all diagnosis: {}",
        report.render()
    );
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::CrDominoDepth)
        .expect("fired");
    // The help spans spell out the climb, round by round.
    assert!(
        diag.help.iter().any(|h| h.contains("round 1:")),
        "{:?}",
        diag.help
    );
    assert!(
        diag.help.iter().any(|h| h.contains("round 8:")),
        "{:?}",
        diag.help
    );
}

#[test]
fn caex019_full_reduced_trees_stay_quiet() {
    let tree = chain_tree(8);
    let reduced = vec![ReducedTree::full(&tree); 2];
    let report = Linter::new().lint_cr(&tree, &reduced, &[(NodeId::new(1), ExceptionId::new(8))]);
    assert!(report.is_clean(), "{}", report.render());
}

#[test]
fn caex019_shallow_domino_warns_without_denying() {
    // Party 1 misses only the deepest class: the domino climbs exactly
    // one level (e3 → e2) and stops where both parties can handle —
    // reported, but at warn severity (diagnosis survives).
    let tree = chain_tree(3);
    let reduced = vec![
        ReducedTree::full(&tree),
        ReducedTree::new(&tree, (0..3).map(ExceptionId::new)).expect("prefix of the chain"),
    ];
    let report = Linter::new().lint_cr(&tree, &reduced, &[(NodeId::new(0), ExceptionId::new(3))]);
    assert!(report.fired(LintCode::CrDominoDepth), "{}", report.render());
    assert!(
        !report.has_denials(),
        "a contained domino is a warning: {}",
        report.render()
    );
}

// -------------------------------------------------------------------
// Fix-it goldens.
// -------------------------------------------------------------------

#[test]
fn caex001_fixit_applies_and_relints_clean() {
    // root → {a → a1, b → b1}: raising {a1, b1} resolves to the root.
    let mut b = TreeBuilder::new("root");
    let a = b.child_of_root("a").unwrap();
    let bb = b.child_of_root("b").unwrap();
    let a1 = b.child("a1", a).unwrap();
    let b1 = b.child("b1", bb).unwrap();
    let tree = b.build().unwrap();
    let raisables = [a1, b1];

    let linter = Linter::new();
    let report = linter.lint_tree(&tree, Some(&raisables));
    assert!(report.fired(LintCode::NonCoveringPair), "{}", report.render());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::NonCoveringPair)
        .expect("fired");
    // Golden: the help spans carry the edit, the builder calls and the
    // guarantee, in that order.
    assert_eq!(diag.help.len(), 3, "{:?}", diag.help);
    assert!(diag.help[0].contains("insert"), "{}", diag.help[0]);
    assert!(diag.help[1].contains("child_of_root"), "{}", diag.help[1]);
    assert!(diag.help[2].contains("keeps the diagnosis"), "{}", diag.help[2]);

    // Applying the suggested edit must clear CAEX001 entirely.
    let edit = TreeEdit::group_non_covering(&tree, &raisables).expect("fix exists");
    let fixed = edit.apply(&tree).expect("edit applies");
    let again = linter.lint_tree(&fixed, Some(&raisables));
    assert!(
        !again.fired(LintCode::NonCoveringPair),
        "fix-it must clear the finding: {}",
        again.render()
    );
    assert!(!again.has_denials(), "{}", again.render());
}

#[test]
fn caex006_fixit_suggests_the_missing_rows() {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level(
            "A",
            (0..2).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid scope");
    // An explicit table that only covers the root: every other class
    // is a totality gap.
    let mut table = HandlerTable::new(Arc::clone(&tree));
    table.on_outcome(tree.root(), SimTime::ZERO, HandlerOutcome::Recovered);
    let report = Linter::new().lint_handlers(&reg, [(NodeId::new(0), a, &table)]);
    assert!(report.fired(LintCode::HandlerTotality), "{}", report.render());
    let diag = report
        .diagnostics
        .iter()
        .find(|d| d.code == LintCode::HandlerTotality)
        .expect("fired");
    // Golden: a header plus one `table.on_outcome(...)` row per gap,
    // each naming the class it closes.
    assert!(diag.help[0].contains("add the missing row"), "{:?}", diag.help);
    let rows: Vec<_> = diag.help[1..]
        .iter()
        .filter(|h| h.contains("table.on_outcome(ExceptionId::new("))
        .collect();
    assert_eq!(rows.len(), tree.len() - 1, "one row per gap: {:?}", diag.help);
    for row in rows {
        assert!(row.contains("HandlerOutcome::Recovered"), "{row}");
    }
}

// -------------------------------------------------------------------
// Checker-vs-explorer agreement on random small scenarios.
// -------------------------------------------------------------------

/// One randomly-shaped small scenario family: `n` objects in a chain
/// tree, one top-level action, optionally a nested action over the
/// objects past the first, and one or two raises. Object 0 always
/// raises in the top-level action (the §4.4 shape: raisers disjoint
/// from nested participants), so every object is eventually drawn
/// into a resolution whose handlers complete the action — a scenario
/// nobody completes would be a CAEX015 of the script, not of the
/// protocol.
#[derive(Debug, Clone)]
struct SmallScenario {
    n: u32,
    chain: u32,
    nested: bool,
    raises: Vec<(u32, u32)>,
}

impl SmallScenario {
    fn build(&self, seed: u64) -> Scenario {
        let tree = Arc::new(chain_tree(self.chain));
        let mut reg = ActionRegistry::new();
        let a0 = reg
            .declare(ActionScope::top_level(
                "A0",
                (0..self.n).map(NodeId::new),
                Arc::clone(&tree),
            ))
            .expect("valid scope");
        let nested = self.nested.then(|| {
            reg.declare(ActionScope::nested(
                "A1",
                (1..self.n).map(NodeId::new),
                Arc::clone(&tree),
                a0,
            ))
            .expect("valid scope")
        });
        let mut scenario = Scenario::new(Arc::new(reg))
            .with_config(NetConfig::default().with_seed(seed))
            .enter_all_at(SimTime::ZERO, a0);
        if let Some(a1) = nested {
            for object in 1..self.n {
                scenario = scenario.enter_at(SimTime::from_micros(1), NodeId::new(object), a1);
            }
        }
        for &(object, exc) in &self.raises {
            scenario = scenario.raise_at(
                SimTime::from_micros(5),
                NodeId::new(object),
                Exception::new(ExceptionId::new(exc)),
            );
        }
        scenario
    }
}

fn arb_small_scenario() -> impl Strategy<Value = SmallScenario> {
    (2u32..=3, 2u32..=3, any::<bool>(), any::<bool>()).prop_flat_map(
        |(n, chain, nested, second)| {
            let first = (1..=chain).prop_map(|exc| (0u32, exc));
            let rest = (1..n, 1..=chain).prop_map(|(object, exc)| (object, exc));
            (first, rest).prop_map(move |(first, rest)| {
                let mut raises = vec![first];
                if second {
                    raises.push(rest);
                }
                SmallScenario {
                    n,
                    chain,
                    nested,
                    raises,
                }
            })
        },
    )
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(200))]

    /// Lint-clean ⇒ checker-clean ⇒ explore-clean, on 200 random small
    /// scenario families. The checker must verify each scope
    /// exhaustively (they are tiny), every counterexample it would
    /// report must replay, and the dynamic sweep over four seeds must
    /// agree with the verdict.
    #[test]
    fn checker_and_explorer_agree_on_small_scenarios(family in arb_small_scenario()) {
        let linter = Linter::new();
        let scenario = family.build(0);
        let lint = linter.lint_scenario(&scenario);
        prop_assert!(!lint.has_denials(), "{}", lint.render());

        let options = ModelOptions {
            limits: ModelLimits { max_states: 300_000, max_trace: 2_048 },
            ..ModelOptions::default()
        };
        let (report, model) = linter.model_check(&scenario, &options);
        prop_assert!(model.skipped.is_none(), "declarative by construction: {model:?}");
        prop_assert!(model.complete, "small scopes are exhaustive: {:?}", model.stats);
        for v in &model.violations {
            prop_assert!(v.replay_confirmed, "unconfirmed counterexample: {v:?}");
        }
        prop_assert!(
            model.violations.is_empty(),
            "checker found a violation on a lint-clean family: {}",
            report.render()
        );

        let exploration = explore(0..4, Expect::Clean, |seed| family.build(seed));
        prop_assert!(
            exploration.is_ok(),
            "checker-clean but dynamically unsafe: {:?}",
            exploration.violations
        );
        prop_assert_eq!(exploration.runs, 4);
    }
}

/// The built-in workload families the CLI battery model-checks, pinned
/// here as integration fixtures too: lint-clean, checker-verified, and
/// with the exact `(states, transitions, crash points)` the checker
/// counts under the default options (no crash sweep). A change to the
/// participant's state digest or its silence predicate that merges or
/// splits states moves these counts.
#[test]
fn builtin_families_are_checker_clean() {
    let linter = Linter::new();
    for (name, scenario, counts) in [
        ("case1(3)", workloads::case1(3, NetConfig::default()).scenario, (32, 31, 0)),
        ("case2(3)", workloads::case2(3, NetConfig::default()).scenario, (362, 458, 0)),
        ("fig3", workloads::fig3(NetConfig::default()).scenario, (2_831, 3_805, 0)),
        (
            "example1",
            workloads::example1(NetConfig::default()).0.scenario,
            (148, 180, 0),
        ),
    ] {
        let (lint, model) = linter.model_check(&scenario, &ModelOptions::default());
        assert!(!lint.has_denials(), "{name}: {}", lint.render());
        assert!(model.verified(), "{name}: {model:?}");
        let seen = (model.stats.states, model.stats.transitions, model.crash_points);
        assert_eq!(seen, counts, "{name}: (states, transitions, crash points)");
    }
}

/// The managed exit line under the checker: O0–O2 in one action over
/// a three-exception chain, everyone entering at 0 µs and completing
/// at 10 µs, optionally with O0 raising `E1` at 5 µs. These are the
/// only pinned entries whose paths take `Grant` steps; the crash sweep
/// of the raising variant crashes the resolver while the others may
/// already wait at the line, so the line is re-evaluated without it.
#[test]
fn exit_line_scenarios_are_pinned() {
    let exit_line = |raise: bool| {
        let tree = Arc::new(chain_tree(3));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", (0..3).map(NodeId::new), tree))
            .expect("valid scope");
        let mut scenario = Scenario::new(Arc::new(reg)).enter_all_at(SimTime::ZERO, a);
        for object in (0..3).map(NodeId::new) {
            scenario = scenario.complete_at(SimTime::from_micros(10), object, a);
        }
        if raise {
            let e1 = Exception::new(ExceptionId::new(1));
            scenario = scenario.raise_at(SimTime::from_micros(5), NodeId::new(0), e1);
        }
        scenario
    };
    let linter = Linter::new();
    let (default, sweep) = (ModelOptions::default(), ModelOptions::with_crash_sweep());
    for (name, raise, options, counts) in [
        ("exit line", false, default, (22, 21, 0)),
        ("exit line, crash sweep", false, sweep, (22, 21, 0)),
        ("exit line + raise", true, default, (849, 1_194, 0)),
        ("exit line + raise, crash sweep", true, sweep, (1_047, 1_406, 17)),
    ] {
        let (lint, model) = linter.model_check(&exit_line(raise), &options);
        assert!(!lint.has_denials(), "{name}: {}", lint.render());
        assert!(model.verified(), "{name}: {model:?}");
        let seen = (model.stats.states, model.stats.transitions, model.crash_points);
        assert_eq!(seen, counts, "{name}: (states, transitions, crash points)");
    }
}

/// A belated participant under the checker: O0 and O1 enter at 0 µs
/// and raise at 5 µs, O2 enters only at 10 µs, so schedules deliver
/// both raisers' exceptions to O2 before its entry and the second one
/// finds the first held. Pins the only checker entry whose paths ask
/// `delivery_silence` about a second belated message.
#[test]
fn belated_entry_scenario_is_pinned() {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level("A", (0..3).map(NodeId::new), tree))
        .expect("valid scope");
    let mut scenario = Scenario::new(Arc::new(reg));
    for (object, exc) in [(0, 1), (1, 2)] {
        let object = NodeId::new(object);
        scenario = scenario.enter_at(SimTime::ZERO, object, a).raise_at(
            SimTime::from_micros(5),
            object,
            Exception::new(ExceptionId::new(exc)),
        );
    }
    let scenario = scenario.enter_at(SimTime::from_micros(10), NodeId::new(2), a);
    let (lint, model) = Linter::new().model_check(&scenario, &ModelOptions::default());
    assert!(!lint.has_denials(), "{}", lint.render());
    assert!(model.verified(), "{model:?}");
    let seen = (model.stats.states, model.stats.transitions, model.crash_points);
    assert_eq!(seen, (130, 157, 0), "(states, transitions, crash points)");
}
