//! Resolver-failover battery: crash every role at every protocol step
//! and demand the §4.2 survivors terminate — committing over the full
//! raised set (deserted raisers' exceptions survive as ghost entries)
//! or cleanly standing down — never deadlocking, never splitting the
//! decision, and never exceeding the adjusted message budget.
//!
//! The grid sweeps are exhaustive over (victim × crash time) for the
//! paper's Examples 1 and 2; the proptest randomizes the whole
//! `(n, p, q)` family with a random crash point; the thread-engine
//! test replays the same failover on real OS threads.

use caex::thread_engine::ThreadRunner;
use caex::{analysis, workloads, Note, RunReport, Scenario};
use caex_action::{ActionRegistry, ActionScope};
use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId};
use proptest::prelude::*;
use std::sync::Arc;

fn agreement_holds(report: &RunReport) -> bool {
    report.resolutions.iter().all(|r| {
        let handled: Vec<_> = report
            .handler_starts
            .iter()
            .filter(|h| h.action == r.action)
            .map(|h| h.exc.id())
            .collect();
        handled.windows(2).all(|w| w[0] == w[1])
    })
}

/// The failover safety contract for one crash run: the network went
/// quiescent without hitting the delivery limit, no *survivor* is
/// stuck mid-resolution (the victim's own frozen state is expected)
/// or at an exit line (a `LeaveRequested` with no later `Completed`
/// for the same action), and every started handler agrees per action.
fn assert_survivors_terminated(report: &RunReport, victim: NodeId, tag: &str) {
    assert!(!report.hit_delivery_limit, "[{tag}] delivery limit hit");
    let stuck: Vec<_> = report
        .deadlocked
        .iter()
        .filter(|n| **n != victim)
        .collect();
    assert!(
        stuck.is_empty(),
        "[{tag}] survivors stuck mid-resolution: {stuck:?}"
    );
    let mut at_line = Vec::new();
    for note in &report.notes {
        match *note {
            Note::LeaveRequested { object, action } if object != victim => {
                at_line.push((object, action));
            }
            Note::Completed { object, action } => at_line.retain(|&w| w != (object, action)),
            _ => {}
        }
    }
    assert!(
        at_line.is_empty(),
        "[{tag}] survivors left waiting at an exit line: {at_line:?}"
    );
    assert!(agreement_holds(report), "[{tag}] agreement violated");
}

/// Adjusted §4.4 budget under one crash: the baseline count plus
/// `3(N−1)²` slack for detection, re-election recovery probes, and the
/// second commit round.
fn message_budget(baseline: u64, n: u64) -> u64 {
    baseline + 3 * (n - 1) * (n - 1)
}

fn crash_config(victim: NodeId, at: SimTime) -> NetConfig {
    NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_crash(victim, at))
}

fn clean_config() -> NetConfig {
    NetConfig::default().with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
}

#[test]
fn example1_crash_grid_every_role_every_step() {
    // Example 1: participants O1..O3, raisers O1 and O2, resolver O2.
    // With 100µs links the whole protocol (raise → inform → ack →
    // commit → handle) spans ~400µs; sweeping crash times to 500µs in
    // 10µs steps covers every protocol step plus the post-commit tail.
    let baseline = workloads::example1(clean_config()).0.run();
    assert!(baseline.is_clean());
    let budget = message_budget(baseline.total_messages(), 3);
    for victim in (1..=3).map(NodeId::new) {
        for t in (0..=50).map(|k| SimTime::from_micros(k * 10)) {
            let tag = format!("example1 victim={victim} t={t}");
            let (workload, _) = workloads::example1(crash_config(victim, t));
            let action = workload.action;
            let report = workload.run();
            assert_survivors_terminated(&report, victim, &tag);
            // Both raisers can never die in one crash, so resolution
            // always completes and every survivor handles it.
            assert_eq!(report.resolutions.len(), 1, "[{tag}]");
            assert!(
                report.handlers_for(action).len() >= 2,
                "[{tag}] expected every survivor to handle"
            );
            assert!(
                report.total_messages() <= budget,
                "[{tag}] {} messages exceeds adjusted budget {budget}",
                report.total_messages()
            );
        }
    }
}

#[test]
fn example2_crash_grid_every_role_every_step() {
    // Example 2 nests A3 ⊂ A2 ⊂ A1 across four objects with a
    // cross-level concurrent raise — the crash can hit a raiser, the
    // resolver, a nested-action member, or a bystander at any point in
    // the abort/resolve cascade. The contract is the safety core:
    // survivors terminate, agree, and stay within budget.
    let baseline = workloads::example2(clean_config()).0.run();
    assert!(baseline.is_clean());
    let budget = message_budget(baseline.total_messages(), 4);
    for victim in (1..=4).map(NodeId::new) {
        for t in (0..=30).map(|k| SimTime::from_micros(k * 20)) {
            let tag = format!("example2 victim={victim} t={t}");
            let (workload, _) = workloads::example2(crash_config(victim, t));
            let report = workload.run();
            assert_survivors_terminated(&report, victim, &tag);
            assert!(
                report.total_messages() <= budget,
                "[{tag}] {} messages exceeds adjusted budget {budget}",
                report.total_messages()
            );
        }
    }
}

#[test]
fn reelected_resolver_commits_the_dead_resolvers_exception() {
    // Pin the ghost-entry guarantee: O2 (Example 1's resolver) raises
    // E2 and dies before committing. The survivors re-elect O1, whose
    // resolution must still cover the dead raiser's E2 — committing
    // exactly what O2 would have, so any peer the dead resolver *did*
    // reach cannot disagree.
    let victim = NodeId::new(2);
    let (workload, ids) = workloads::example1(crash_config(victim, SimTime::from_micros(150)));
    let report = workload.run();
    assert_survivors_terminated(&report, victim, "ghost");
    assert_eq!(report.resolutions.len(), 1);
    let resolution = &report.resolutions[0];
    assert_eq!(resolution.resolver, NodeId::new(1), "next-highest live raiser");
    assert!(
        resolution.raised.iter().any(|(o, e)| *o == victim && e.id() == ids.e2),
        "the deserter's raise must survive as a ghost entry: {:?}",
        resolution.raised
    );
    let reelections: Vec<_> = report
        .notes
        .iter()
        .filter(|n| matches!(n, Note::ResolverReelected { .. }))
        .collect();
    assert!(!reelections.is_empty(), "re-election must be noted");
}

#[test]
fn sole_raiser_partial_commit_converges_via_forwarding() {
    // The p = 1 soft spot: O3 is the only raiser of general(4,1,0), so
    // the whole raised set dies with it. A partition window drops the
    // commit O3 sends to O0 at t=202µs (exception t=2 → ACKs t=102 →
    // commit t=202 under 100µs links), then O3 crashes. O1 and O2
    // handled the commit; O0 holds only a ghost entry and stands down.
    // Pre-forwarding, the run "terminated" with O0 silently completing
    // normally while its peers handled an exception. Now the desertion
    // report makes the informed survivors re-forward the decision, and
    // the stood-down O0 accepts it: all three survivors handle.
    let victim = NodeId::new(3);
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(
            FaultPlan::none()
                .with_partition(
                    [NodeId::new(0)],
                    SimTime::from_micros(150),
                    SimTime::from_micros(250),
                )
                .with_crash(victim, SimTime::from_micros(400)),
        );
    let workload = workloads::general(4, 1, 0, config);
    let action = workload.action;
    let report = workload.run();
    assert_survivors_terminated(&report, victim, "p=1 partial commit");
    assert_eq!(report.resolutions.len(), 1);
    let handlers: Vec<NodeId> = report
        .handlers_for(action)
        .iter()
        .map(|h| h.object)
        .collect();
    for survivor in (0..3).map(NodeId::new) {
        assert!(
            handlers.contains(&survivor),
            "{survivor} must handle the forwarded commit; handlers: {handlers:?}"
        );
    }
    // Agreement over the forwarded decision is part of
    // assert_survivors_terminated; pin the exception too.
    let agreed = report.agreed_exception(action).expect("resolved");
    assert_eq!(agreed.id(), ExceptionId::new(1));
}

#[test]
fn healing_partition_stalls_but_never_amputates() {
    // The same topology under a *healing* partition and no crash: O0
    // is unreachable while the resolution wants its ACK, the traffic
    // is deferred (not dropped) to the heal time, and the run must
    // finish with every participant handling — zero deserters, zero
    // resolutions lost.
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_healing_partition(
            [NodeId::new(0)],
            SimTime::ZERO,
            SimTime::from_millis(2),
        ));
    let workload = workloads::general(4, 1, 0, config);
    let action = workload.action;
    let report = workload.run();
    assert!(report.is_clean(), "healed run must be clean");
    assert_eq!(report.resolutions.len(), 1);
    assert_eq!(
        report.handlers_for(action).len(),
        4,
        "every participant handles after the heal"
    );
}

#[test]
fn thread_engine_crash_injection_fails_over_on_real_threads() {
    // The same failover on the threaded engine: node 2 raises, wins
    // the election, and is halted abruptly mid-protocol; the scripted
    // failure detector reports it to the survivors, node 0 takes over,
    // and both survivors handle the dead raiser's ghost exception.
    //
    // Real threads have no virtual clock, so the crash window is made
    // structural rather than temporal: node 1 enters the action only
    // at t=100ms, and a pre-entry participant buffers exceptions and
    // ACKs them on entry — the elected resolver therefore *cannot*
    // collect its last ACK (and commit) before its halt at t=20ms, no
    // matter how the scheduler interleaves the threads.
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let a1 = reg
        .declare(ActionScope::top_level(
            "A1",
            (0..3).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid");
    let victim = NodeId::new(2);
    // Halt the prospective resolver while node 1's ACK is still
    // outstanding; detection (50ms later — thread scheduling is
    // coarse) hands the election to node 0, which commits once node 1
    // enters.
    let crash = FaultPlan::none().with_crash(victim, SimTime::from_millis(20));
    let scenario = Scenario::new(Arc::new(reg))
        .with_config(NetConfig::default().with_faults(crash))
        .with_detection_delay(SimTime::from_millis(50))
        .enter_at(SimTime::ZERO, NodeId::new(0), a1)
        .enter_at(SimTime::ZERO, victim, a1)
        .enter_at(SimTime::from_millis(100), NodeId::new(1), a1)
        .raise_at(SimTime::from_millis(1), NodeId::new(0), Exception::new(ExceptionId::new(1)))
        .raise_at(SimTime::from_millis(1), victim, Exception::new(ExceptionId::new(2)));
    let report = ThreadRunner::new(scenario).run();
    let agreed = report.agreed_exception(a1).expect("survivors resolve");
    // resolve(E1, E2) on chain_tree(2) — the same exception the dead
    // resolver would have committed.
    assert_eq!(agreed.id(), ExceptionId::new(1));
    let handled = report.handled_exceptions(a1);
    let handlers: Vec<NodeId> = handled.iter().map(|(o, _)| *o).collect();
    assert!(handlers.contains(&NodeId::new(0)) && handlers.contains(&NodeId::new(1)));
    assert!(!handlers.contains(&victim), "the halted victim cannot handle");
    assert!(
        report
            .notes
            .iter()
            .any(|n| matches!(n, Note::ResolverReelected { .. })),
        "re-election must be noted on the thread engine too"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Random `(n, p, q)` cell, random victim, random crash point:
    /// survivors always terminate and agree within the adjusted
    /// budget, and whenever a live raiser remains the resolution
    /// still commits with every survivor handling it.
    #[test]
    fn random_cell_random_crash_point_survives(
        (n, p, q) in (2u32..=6)
            .prop_flat_map(|n| (Just(n), 1..=n))
            .prop_flat_map(|(n, p)| (Just(n), Just(p), 0..=(n - p))),
        victim_idx in 0u32..6,
        crash_us in 0u64..=600,
    ) {
        let victim = NodeId::new(victim_idx % n);
        let at = SimTime::from_micros(crash_us);
        let workload = workloads::general(n, p, q, crash_config(victim, at));
        let action = workload.action;
        let report = workload.run();
        let tag = format!("general:{n},{p},{q} victim={victim} t={at}");
        assert_survivors_terminated(&report, victim, &tag);
        let budget = message_budget(
            analysis::messages_general(u64::from(n), u64::from(p), u64::from(q)),
            u64::from(n),
        );
        prop_assert!(
            report.total_messages() <= budget,
            "[{tag}] {} messages exceeds adjusted budget {budget}",
            report.total_messages()
        );
        // The raisers are the top `p` node ids; if at least one raiser
        // survives, failover guarantees a commit that every survivor
        // handles. (A sole raiser that crashes may leave nothing to
        // resolve — survivors then stand down to normal, which
        // `assert_survivors_terminated` has already checked.)
        let raiser_survives = (0..p).any(|j| NodeId::new(n - 1 - j) != victim);
        if raiser_survives {
            prop_assert_eq!(report.resolutions.len(), 1, "{}", tag);
            prop_assert!(
                report.handlers_for(action).len() >= (n as usize) - 1,
                "[{tag}] every survivor must handle"
            );
        }
    }
}

/// The managed exit line does not wait for a deserter. O1–O3 share one
/// action; O3 crashes at 500 µs and is reported 100 µs later, and the
/// survivors complete either before the report (the line re-evaluated
/// on it) or after it (the line full without O3). Either way both
/// survivors leave.
#[test]
fn the_managed_exit_line_does_not_wait_for_a_deserter() {
    let victim = NodeId::new(3);
    for (order, complete) in [("before the report", 200), ("after the report", 1_000)] {
        let tree = Arc::new(chain_tree(2));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", (1..=3).map(NodeId::new), tree))
            .expect("valid scope");
        let at = SimTime::from_micros(complete);
        let report = Scenario::new(Arc::new(reg))
            .with_config(crash_config(victim, SimTime::from_micros(500)))
            .enter_all_at(SimTime::ZERO, a)
            .complete_at(at, NodeId::new(1), a)
            .complete_at(at, NodeId::new(2), a)
            .run();
        let tag = format!("survivors at the line {order}");
        for survivor in [1, 2].map(NodeId::new) {
            let completed = Note::Completed { object: survivor, action: a };
            assert!(report.notes.contains(&completed), "[{tag}] {survivor} never left");
        }
        assert_survivors_terminated(&report, victim, &tag);
    }
}
