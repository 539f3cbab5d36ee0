//! The two runtimes agree: the same scenario produces the same
//! resolution on the discrete-event simulator and on real threads.

use caex::thread_engine::ThreadRunner;
use caex::{NestedStrategy, Note, Scenario};
use caex_action::{AbortionOutcome, ActionId, ActionRegistry, ActionScope, HandlerTable};
use caex_net::{FaultPlan, NetConfig, NodeId, SimTime};
use caex_obs::{ObsEvent, ObsKind, Recorder};
use caex_tree::{balanced_tree, chain_tree, Exception, ExceptionId};
use std::sync::Arc;

fn setup(n: u32) -> (Arc<ActionRegistry>, ActionId) {
    let tree = Arc::new(balanced_tree(2, 2)); // 7 classes
    let mut reg = ActionRegistry::new();
    let action = reg
        .declare(ActionScope::top_level(
            "shared",
            (0..n).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .unwrap();
    (Arc::new(reg), action)
}

/// Exceptions e3 (leaf under e1) and e4 (leaf under e1) resolve to e1
/// in a 2-ary depth-2 tree, on both runtimes.
#[test]
fn same_resolution_on_both_runtimes() {
    let raises = [
        (NodeId::new(0), ExceptionId::new(3)),
        (NodeId::new(2), ExceptionId::new(4)),
    ];

    // Simulator.
    let (registry, action) = setup(4);
    let mut scenario = Scenario::new(Arc::clone(&registry)).enter_all_at(SimTime::ZERO, action);
    for &(node, exc) in &raises {
        scenario = scenario.raise_at(SimTime::from_micros(10), node, Exception::new(exc));
    }
    let sim_report = scenario.run();
    let sim_resolved = sim_report
        .agreed_exception(action)
        .expect("sim resolution")
        .id();

    // Threads.
    let (registry, action) = setup(4);
    let mut scenario = Scenario::new(registry).enter_all_at(SimTime::ZERO, action);
    for &(node, exc) in &raises {
        scenario = scenario.raise_at(SimTime::from_millis(2), node, Exception::new(exc));
    }
    let thread_report = ThreadRunner::new(scenario).run();
    let thread_resolved = thread_report
        .agreed_exception(action)
        .expect("thread resolution")
        .id();

    assert_eq!(sim_resolved, thread_resolved);
    assert_eq!(thread_report.handled_exceptions(action).len(), 4);
}

/// Threaded runs satisfy the agreement invariant across repetitions
/// (interleavings differ, outcomes must not).
#[test]
fn threaded_agreement_is_stable_across_runs() {
    for _ in 0..3 {
        let (registry, action) = setup(3);
        let scenario = Scenario::new(registry)
            .enter_all_at(SimTime::ZERO, action)
            .raise_at(
                SimTime::from_millis(1),
                NodeId::new(0),
                Exception::new(ExceptionId::new(3)),
            )
            .raise_at(
                SimTime::from_millis(1),
                NodeId::new(1),
                Exception::new(ExceptionId::new(5)),
            );
        let report = ThreadRunner::new(scenario).run();
        let agreed = report.agreed_exception(action).expect("resolved");
        // e3 (under e1) and e5 (under e2) only share the root.
        assert_eq!(agreed.id(), ExceptionId::ROOT);
        assert_eq!(report.handled_exceptions(action).len(), 3);
    }
}

/// Nested abortion on real threads: an outer exception aborts a nested
/// action whose abortion handler signals, and the signal joins the
/// resolution — Example-2 mechanics outside the simulator.
#[test]
fn threaded_nested_abortion_with_signal() {
    let tree = Arc::new(chain_tree(4));
    let mut reg = ActionRegistry::new();
    let a1 = reg
        .declare(ActionScope::top_level(
            "A1",
            (0..3).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .unwrap();
    let a2 = reg
        .declare(ActionScope::nested(
            "A2",
            [NodeId::new(1)],
            Arc::clone(&tree),
            a1,
        ))
        .unwrap();
    let mut table = HandlerTable::recover_all(Arc::clone(&tree));
    table.on_abort(caex_net::SimTime::from_micros(100), || {
        AbortionOutcome::Signal(Exception::new(ExceptionId::new(3)))
    });

    let scenario = Scenario::new(Arc::new(reg))
        .enter_all_at(SimTime::ZERO, a1)
        .enter_at(SimTime::from_millis(1), NodeId::new(1), a2)
        .handlers(NodeId::new(1), a2, table)
        .raise_at(
            SimTime::from_millis(3),
            NodeId::new(0),
            Exception::new(ExceptionId::new(2)),
        );
    let report = ThreadRunner::new(scenario).run();

    // Resolution over {e2 (raised), e3 (abortion signal)} on the chain
    // tree resolves to e2; all three objects handle it.
    let agreed = report.agreed_exception(a1).expect("resolution on threads");
    assert_eq!(agreed.id(), ExceptionId::new(2));
    assert_eq!(report.handled_exceptions(a1).len(), 3);
    // The nested object announced and completed its abortion.
    assert!(report
        .notes
        .iter()
        .any(|n| matches!(n, Note::AbortedNested { .. })));
    assert_eq!(report.stats.sent_of_kind("have_nested"), 2);
    assert_eq!(report.stats.sent_of_kind("nested_completed"), 2);
}

/// A threaded happy path sends no protocol messages (§4.4's
/// no-overhead claim, on real channels).
#[test]
fn threaded_happy_path_is_message_free() {
    let (registry, action) = setup(3);
    let report =
        ThreadRunner::new(Scenario::new(registry).enter_all_at(SimTime::ZERO, action)).run();
    assert_eq!(report.stats.sent_total(), 0);
    assert!(report.handled_exceptions(action).is_empty());
}

/// The thread engine populates the full per-kind breakdown: every sent
/// message is either delivered or accounted as a drop (inboxes are
/// drained at idle exit), so the conservation law the sim path already
/// satisfied holds on threads too.
#[test]
fn threaded_stats_conserve_messages_per_kind() {
    let (registry, action) = setup(4);
    let scenario = Scenario::new(registry)
        .enter_all_at(SimTime::ZERO, action)
        .raise_at(
            SimTime::from_millis(1),
            NodeId::new(1),
            Exception::new(ExceptionId::new(3)),
        )
        .raise_at(
            SimTime::from_millis(1),
            NodeId::new(3),
            Exception::new(ExceptionId::new(4)),
        );
    let report = ThreadRunner::new(scenario).run();
    let stats = &report.stats;
    assert!(stats.sent_total() > 0);
    assert_eq!(
        stats.sent_total(),
        stats.delivered_total() + stats.dropped_total(),
        "thread engine must account every sent message: {stats}"
    );
    for (kind, sent) in stats.sent_by_kind() {
        assert_eq!(
            sent,
            stats.delivered_of_kind(kind) + stats.dropped_of_kind(kind),
            "per-kind conservation violated for {kind}"
        );
        assert!(
            stats.delivered_of_kind(kind) > 0,
            "per-kind delivered counter not populated for {kind}"
        );
    }
}

// ---------------------------------------------------------------------
// One script, admitted one way: everything a `Scenario` says about its
// participants reaches the threads as it reaches the simulator.
// ---------------------------------------------------------------------

/// Who committed and over which raised exceptions (ids ascending), in
/// resolver order.
type Commits = Vec<(NodeId, Vec<ExceptionId>)>;

fn commits(notes: &[Note], action: ActionId) -> Commits {
    let mut commits: Vec<_> = notes
        .iter()
        .filter_map(|n| match n {
            Note::ResolutionCommitted {
                action: a,
                resolver,
                raised,
                ..
            } if *a == action => {
                let mut ids: Vec<_> = raised.iter().map(|(_, e)| e.id()).collect();
                ids.sort_unstable();
                Some((*resolver, ids))
            }
            _ => None,
        })
        .collect();
    commits.sort();
    commits
}

/// Runs the scenario `build` makes on the simulator and on threads,
/// demands the same commits and the same agreed exception in `action`,
/// and returns them with the threads' wall-clock event stream.
fn on_both_hosts(
    build: impl Fn() -> Scenario,
    action: ActionId,
) -> (Commits, Option<ExceptionId>, Vec<ObsEvent>) {
    let sim = build().run();
    let mut recorder = Recorder::new();
    let threads = ThreadRunner::new(build()).run_observed(&mut recorder);
    let verdict = commits(&sim.notes, action);
    assert_eq!(
        commits(&threads.notes, action),
        verdict,
        "resolver and raised set"
    );
    let agreed = sim.agreed_exception(action).map(|e| e.id());
    assert_eq!(threads.agreed_exception(action).map(|e| e.id()), agreed);
    (verdict, agreed, recorder.events)
}

/// §4.3 Example 2 with millisecond steps (threads fire them on the wall
/// clock): O1 raises E1 in A1 while O2 raises E2 in A3, nested in A2,
/// nested in A1; O2's abortion handler for A2 signals E3; O3's entry
/// into A3 is belated.
fn example2_in_millis() -> (impl Fn() -> Scenario, ActionId) {
    let tree = Arc::new(chain_tree(3));
    let mut reg = ActionRegistry::new();
    let o = NodeId::new;
    let a1 = reg
        .declare(ActionScope::top_level(
            "A1",
            (1..=4).map(o),
            Arc::clone(&tree),
        ))
        .unwrap();
    let a2 = reg
        .declare(ActionScope::nested(
            "A2",
            (2..=4).map(o),
            Arc::clone(&tree),
            a1,
        ))
        .unwrap();
    let a3 = reg
        .declare(ActionScope::nested(
            "A3",
            [o(2), o(3)],
            Arc::clone(&tree),
            a2,
        ))
        .unwrap();
    let registry = Arc::new(reg);
    let ms = SimTime::from_millis;
    let build = move || {
        let mut o2_a2 = HandlerTable::recover_all(Arc::clone(&tree));
        o2_a2.on_abort_outcome(
            SimTime::from_micros(5),
            AbortionOutcome::Signal(Exception::new(ExceptionId::new(3))),
        );
        Scenario::new(Arc::clone(&registry))
            .enter_all_at(SimTime::ZERO, a1)
            .enter_at(ms(1), o(2), a2)
            .enter_at(ms(1), o(3), a2)
            .enter_at(ms(1), o(4), a2)
            .enter_at(ms(2), o(2), a3)
            .enter_at(ms(150), o(3), a3)
            .handlers(o(2), a2, o2_a2)
            .raise_at(ms(10), o(1), Exception::new(ExceptionId::new(1)))
            .raise_at(ms(10), o(2), Exception::new(ExceptionId::new(2)))
    };
    (build, a1)
}

#[test]
fn example2_elects_o2_over_e1_and_e3_on_both_hosts() {
    let (build, a1) = example2_in_millis();
    let (commits, agreed, _) = on_both_hosts(build, a1);
    let (e1, e3) = (ExceptionId::new(1), ExceptionId::new(3));
    assert_eq!(commits, [(NodeId::new(2), vec![e1, e3])]);
    assert_eq!(agreed, Some(e1));
}

/// §4.4's resolver group, where it decides the outcome: the top raiser
/// O2 dies holding the election and failover is off, so only the
/// group's second member can commit. As in the crash test of
/// `crates/caex/tests/failover.rs` the window is structural — O3 enters
/// at 100 ms and a pre-entry participant ACKs on entry, so nobody can
/// be ready before O2's halt at 20 ms, on either clock.
#[test]
fn resolver_group_outlives_its_top_member_on_both_hosts() {
    let (registry, action) = setup(4);
    let o = NodeId::new;
    let ms = SimTime::from_millis;
    let build = || {
        let crash = FaultPlan::none().with_crash(o(2), ms(20));
        Scenario::new(Arc::clone(&registry))
            .with_config(NetConfig::default().with_faults(crash))
            .with_failover(false)
            .with_resolver_group(2)
            .enter_at(SimTime::ZERO, o(0), action)
            .enter_at(SimTime::ZERO, o(1), action)
            .enter_at(SimTime::ZERO, o(2), action)
            .enter_at(ms(100), o(3), action)
            .raise_at(ms(1), o(1), Exception::new(ExceptionId::new(3)))
            .raise_at(ms(1), o(2), Exception::new(ExceptionId::new(4)))
    };
    let (commits, agreed, _) = on_both_hosts(build, action);
    assert_eq!(
        commits,
        [(o(1), vec![ExceptionId::new(3), ExceptionId::new(4)])]
    );
    assert_eq!(agreed, Some(ExceptionId::new(1)));
}

#[test]
fn fig1a_wait_honours_the_declared_run_time_on_both_hosts() {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let nodes = [NodeId::new(0), NodeId::new(1)];
    let a1 = reg
        .declare(ActionScope::top_level("A1", nodes, Arc::clone(&tree)))
        .unwrap();
    let a2 = reg
        .declare(ActionScope::nested("A2", [nodes[1]], tree, a1))
        .unwrap();
    let registry = Arc::new(reg);
    let build = || {
        Scenario::new(Arc::clone(&registry))
            .with_strategy(NestedStrategy::Wait)
            .enter_all_at(SimTime::ZERO, a1)
            .enter_at(SimTime::from_millis(1), nodes[1], a2)
            .nested_remaining(nodes[1], a2, Some(SimTime::from_millis(30)))
            .raise_at(
                SimTime::from_millis(5),
                nodes[0],
                Exception::new(ExceptionId::new(1)),
            )
    };
    let (commits, agreed, events) = on_both_hosts(build, a1);
    assert_eq!(commits, [(nodes[0], vec![ExceptionId::new(1)])]);
    assert_eq!(agreed, Some(ExceptionId::new(1)));
    // O1 waited out A2's declared 30 ms on the wall clock too (an
    // undeclared run time ends the nested action at once).
    let at = |wanted: fn(&ObsKind) -> bool| {
        let event = events.iter().find(|e| wanted(&e.kind)).expect("streamed");
        event.at.as_micros()
    };
    let raised = at(|k| matches!(k, ObsKind::Raise { .. }));
    let committed = at(|k| matches!(k, ObsKind::ResolutionCommit { .. }));
    assert!(
        committed >= raised + 30_000,
        "raise at {raised} µs, commit at {committed} µs"
    );
}
