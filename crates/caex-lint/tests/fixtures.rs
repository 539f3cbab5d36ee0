//! One positive fixture per lint code: every `CAEXnnn` is demonstrated
//! by a minimal input that fires it, with the acceptance-critical codes
//! (`CAEX001`, `CAEX006`, `CAEX010`) asserted at deny level.

use caex::program::ActionProgram;
use caex::Scenario;
use caex_action::{ActionId, ActionRegistry, ActionScope, HandlerOutcome, HandlerTable};
use caex_lint::{LintCode, LintConfig, Linter, Severity};
use caex_net::{NodeId, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId, ExceptionTree, TreeBuilder};
use std::sync::Arc;

/// Root with two sibling children: raisables from different subtrees
/// only meet at the universal exception.
fn forked_tree() -> (ExceptionTree, ExceptionId, ExceptionId) {
    let mut b = TreeBuilder::new("universal_exception");
    let left = b.child_of_root("left").expect("fresh");
    let right = b.child_of_root("right").expect("fresh");
    (b.build().expect("valid"), left, right)
}

fn severity_of(report: &caex_lint::LintReport, code: LintCode) -> Option<Severity> {
    report
        .diagnostics
        .iter()
        .find(|d| d.code == code)
        .map(|d| d.severity)
}

#[test]
fn caex001_non_covering_pair_is_deny() {
    let (tree, left, right) = forked_tree();
    let report = Linter::new().lint_tree(&tree, Some(&[left, right]));
    assert_eq!(
        severity_of(&report, LintCode::NonCoveringPair),
        Some(Severity::Deny)
    );
}

#[test]
fn caex002_unreachable_class_fires() {
    let (tree, left, right) = forked_tree();
    let report = Linter::new().lint_tree(&tree, Some(&[left]));
    assert_eq!(
        severity_of(&report, LintCode::UnreachableClass),
        Some(Severity::Warn)
    );
    // With both subtrees raisable nothing is unreachable (the pair lint
    // fires instead).
    let report = Linter::new().lint_tree(&tree, Some(&[left, right]));
    assert!(!report.fired(LintCode::UnreachableClass));
}

#[test]
fn caex003_duplicate_raisable_fires() {
    let e1 = ExceptionId::new(1);
    let report = Linter::new().lint_tree(&chain_tree(3), Some(&[e1, e1]));
    assert_eq!(
        severity_of(&report, LintCode::DuplicateRaisable),
        Some(Severity::Deny)
    );
}

#[test]
fn caex004_degenerate_chain_fires() {
    let report = Linter::new().lint_tree(&chain_tree(6), None);
    assert_eq!(
        severity_of(&report, LintCode::DegenerateChain),
        Some(Severity::Warn)
    );
    // Short chains and branched trees stay quiet.
    assert!(!Linter::new()
        .lint_tree(&chain_tree(1), None)
        .fired(LintCode::DegenerateChain));
    assert!(!Linter::new()
        .lint_tree(&forked_tree().0, None)
        .fired(LintCode::DegenerateChain));
}

#[test]
fn caex005_excessive_depth_fires() {
    let report = Linter::new().lint_tree(&chain_tree(9), None);
    assert_eq!(
        severity_of(&report, LintCode::ExcessiveDepth),
        Some(Severity::Warn)
    );
    assert!(!Linter::new()
        .lint_tree(&chain_tree(8), None)
        .fired(LintCode::ExcessiveDepth));
}

#[test]
fn caex006_handler_totality_is_deny() {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level(
            "a",
            [NodeId::new(0)],
            Arc::clone(&tree),
        ))
        .expect("valid");
    let mut table = HandlerTable::new(Arc::clone(&tree));
    table.on(ExceptionId::new(1), SimTime::ZERO, |_| {
        HandlerOutcome::Recovered
    });
    let report = Linter::new().lint_handlers(&reg, [(NodeId::new(0), a, &table)]);
    assert_eq!(
        severity_of(&report, LintCode::HandlerTotality),
        Some(Severity::Deny)
    );
    // recover_all is total: no finding.
    let total = HandlerTable::recover_all(Arc::clone(&tree));
    let report = Linter::new().lint_handlers(&reg, [(NodeId::new(0), a, &total)]);
    assert!(!report.fired(LintCode::HandlerTotality));
}

#[test]
fn caex006_respects_declared_subset() {
    // With a declared subset, only those classes (plus the root, which
    // any resolution can land on) need handlers.
    let tree = Arc::new(chain_tree(3));
    let e1 = ExceptionId::new(1);
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(
            ActionScope::top_level("a", [NodeId::new(0)], Arc::clone(&tree))
                .with_declared_exceptions([e1]),
        )
        .expect("valid");
    let mut table = HandlerTable::new(Arc::clone(&tree));
    table.on(e1, SimTime::ZERO, |_| HandlerOutcome::Recovered);
    table.on(ExceptionId::ROOT, SimTime::ZERO, |_| {
        HandlerOutcome::Recovered
    });
    let report = Linter::new().lint_handlers(&reg, [(NodeId::new(0), a, &table)]);
    assert!(!report.fired(LintCode::HandlerTotality), "{}", report.render());
}

#[test]
fn caex007_scope_containment_is_deny() {
    let tree = Arc::new(chain_tree(2));
    let scopes = vec![
        (
            ActionId::new(0),
            ActionScope::top_level("top", [NodeId::new(0)], Arc::clone(&tree)),
        ),
        (
            ActionId::new(1),
            ActionScope::nested(
                "nested",
                [NodeId::new(0), NodeId::new(7)],
                Arc::clone(&tree),
                ActionId::new(0),
            ),
        ),
    ];
    let report = Linter::new().lint_scopes(&scopes);
    assert_eq!(
        severity_of(&report, LintCode::ScopeContainment),
        Some(Severity::Deny)
    );
}

#[test]
fn caex008_missing_abortion_handler_fires() {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let top = reg
        .declare(ActionScope::top_level(
            "top",
            [NodeId::new(0)],
            Arc::clone(&tree),
        ))
        .expect("valid");
    let nested = reg
        .declare(ActionScope::nested(
            "nested",
            [NodeId::new(0)],
            Arc::clone(&tree),
            top,
        ))
        .expect("valid");
    // Total resumption coverage, but no abortion handler.
    let mut table = HandlerTable::new(Arc::clone(&tree));
    for id in tree.iter() {
        table.on(id, SimTime::ZERO, |_| HandlerOutcome::Recovered);
    }
    let report = Linter::new().lint_handlers(&reg, [(NodeId::new(0), nested, &table)]);
    assert_eq!(
        severity_of(&report, LintCode::MissingAbortionHandler),
        Some(Severity::Warn)
    );
    // The same table on the top-level action is fine: nothing above it
    // can abort it.
    let report = Linter::new().lint_handlers(&reg, [(NodeId::new(0), top, &table)]);
    assert!(!report.fired(LintCode::MissingAbortionHandler));
}

#[test]
fn caex009_undeclared_exception_is_deny() {
    let tree = Arc::new(chain_tree(2));
    let scopes = vec![(
        ActionId::new(0),
        ActionScope::top_level("a", [NodeId::new(0)], Arc::clone(&tree))
            .with_declared_exceptions([ExceptionId::new(42)]),
    )];
    let report = Linter::new().lint_scopes(&scopes);
    assert_eq!(
        severity_of(&report, LintCode::UndeclaredException),
        Some(Severity::Deny)
    );
}

fn two_object_program() -> (ActionProgram, ActionId) {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level(
            "job",
            (0..2).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid");
    (ActionProgram::new(Arc::new(reg), a), a)
}

#[test]
fn caex010_undeclared_raise_is_deny() {
    let (mut program, _) = two_object_program();
    program
        .object(NodeId::new(0))
        .raise(Exception::new(ExceptionId::new(42)))
        .complete();
    program.object(NodeId::new(1)).complete();
    let report = Linter::new().lint_program(&program);
    assert_eq!(
        severity_of(&report, LintCode::UndeclaredRaise),
        Some(Severity::Deny)
    );
}

#[test]
fn caex010_fires_for_raise_outside_declared_subset() {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(
            ActionScope::top_level("job", [NodeId::new(0)], Arc::clone(&tree))
                .with_declared_exceptions([ExceptionId::new(1)]),
        )
        .expect("valid");
    let mut program = ActionProgram::new(Arc::new(reg), a);
    program
        .object(NodeId::new(0))
        // e2 is in the tree but not declared raisable by the action.
        .raise(Exception::new(ExceptionId::new(2)))
        .complete();
    let report = Linter::new().lint_program(&program);
    assert_eq!(
        severity_of(&report, LintCode::UndeclaredRaise),
        Some(Severity::Deny)
    );
}

#[test]
fn caex010_fires_on_scripted_scenario_raise() {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level(
            "a",
            [NodeId::new(0)],
            Arc::clone(&tree),
        ))
        .expect("valid");
    let scenario = Scenario::new(Arc::new(reg))
        .enter_all_at(SimTime::ZERO, a)
        .raise_at(
            SimTime::from_micros(5),
            NodeId::new(0),
            Exception::new(ExceptionId::new(42)),
        );
    let report = Linter::new().lint_scenario(&scenario);
    assert_eq!(
        severity_of(&report, LintCode::UndeclaredRaise),
        Some(Severity::Deny)
    );
}

#[test]
fn caex011_never_completes_is_deny() {
    let (mut program, _) = two_object_program();
    program.object(NodeId::new(0)).complete();
    // O1 works forever and never completes; nothing raises anywhere.
    program
        .object(NodeId::new(1))
        .work(SimTime::from_micros(100));
    let report = Linter::new().lint_program(&program);
    assert_eq!(
        severity_of(&report, LintCode::NeverCompletes),
        Some(Severity::Deny)
    );
}

#[test]
fn caex011_stays_quiet_when_handlers_can_take_over() {
    let (mut program, _) = two_object_program();
    program
        .object(NodeId::new(0))
        .raise(Exception::new(ExceptionId::new(1)));
    program
        .object(NodeId::new(1))
        .work(SimTime::from_micros(100));
    let report = Linter::new().lint_program(&program);
    assert!(!report.fired(LintCode::NeverCompletes), "{}", report.render());
}

#[test]
fn caex012_enter_imbalance_is_deny() {
    let (mut program, _) = two_object_program();
    program
        .object(NodeId::new(0))
        // Leaving an action that was never entered.
        .leave(ActionId::new(0))
        .complete();
    program.object(NodeId::new(1)).complete();
    let report = Linter::new().lint_program(&program);
    assert_eq!(
        severity_of(&report, LintCode::EnterImbalance),
        Some(Severity::Deny)
    );

    // The same in a script (what the thread engine and the wire mesh
    // run too): O1 completes an action it never entered.
    let mut reg = ActionRegistry::new();
    let a = reg
        .declare(ActionScope::top_level(
            "a",
            [NodeId::new(0), NodeId::new(1)],
            Arc::new(chain_tree(2)),
        ))
        .expect("valid");
    let scenario = Scenario::new(Arc::new(reg))
        .enter_at(SimTime::ZERO, NodeId::new(0), a)
        .complete_at(SimTime::from_micros(5), NodeId::new(1), a)
        .complete_at(SimTime::from_micros(9), NodeId::new(0), a);
    assert!(Linter::new()
        .lint_scenario(&scenario)
        .fired(LintCode::EnterImbalance));
}

#[test]
fn caex013_non_participant_step_is_deny() {
    let (mut program, _) = two_object_program();
    program.object(NodeId::new(0)).complete();
    program.object(NodeId::new(1)).complete();
    // O9 is not a participant of the action.
    program.object(NodeId::new(9)).complete();
    let report = Linter::new().lint_program(&program);
    assert_eq!(
        severity_of(&report, LintCode::NonParticipantStep),
        Some(Severity::Deny)
    );
}

#[test]
fn caex014_unentered_participant_fires() {
    let (mut program, _) = two_object_program();
    program.object(NodeId::new(0)).complete();
    // O1 is declared but never programmed (and CAEX011 also fires:
    // nothing can raise, so O1 never completing deadlocks the action).
    let report = Linter::new().lint_program(&program);
    assert_eq!(
        severity_of(&report, LintCode::UnenteredParticipant),
        Some(Severity::Warn)
    );
    assert!(report.fired(LintCode::NeverCompletes));
}

#[test]
fn clean_program_and_builtin_workloads_have_no_denials() {
    let (mut program, _) = two_object_program();
    program
        .object(NodeId::new(0))
        .work(SimTime::from_micros(10))
        .complete();
    program
        .object(NodeId::new(1))
        .work(SimTime::from_micros(20))
        .complete();
    assert!(!Linter::new().lint_program(&program).has_denials());

    let linter = Linter::new();
    for (name, scenario) in [
        (
            "general",
            caex::workloads::general(6, 3, 2, Default::default()).scenario,
        ),
        ("fig3", caex::workloads::fig3(Default::default()).scenario),
        (
            "example2",
            caex::workloads::example2(Default::default()).0.scenario,
        ),
    ] {
        let report = linter.lint_scenario(&scenario);
        assert!(!report.has_denials(), "{name}: {}", report.render());
    }
}

#[test]
fn config_allow_and_deny_warnings_reconfigure() {
    let allowed = Linter::with_config(LintConfig::new().allow(LintCode::DegenerateChain));
    assert!(allowed.lint_tree(&chain_tree(6), None).is_clean());

    let strict = Linter::with_config(LintConfig::new().deny_warnings());
    assert!(strict.lint_tree(&chain_tree(6), None).has_denials());
}
