//! Robustness of the protocol outside its assumed fault model:
//! partitions, loss sweeps, crash placement. The algorithm assumes
//! reliable FIFO channels (§4.2); these tests document exactly how it
//! degrades when lower layers fail to provide that, and that it always
//! *fails safe* (stalls detectably) rather than violating agreement.

use caex::{workloads, RunReport};
use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimTime};

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

#[test]
fn partition_during_resolution_stalls_but_never_splits_brain() {
    // Nodes {0,1} are cut off from {2,3,4} exactly while the exception
    // broadcast is in flight.
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_partition(
            [NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            SimTime::from_millis(100),
        ));
    let report = workloads::case3(5, config).run();
    // The protocol cannot finish (it needs everyone), but it must not
    // commit contradictory resolutions either.
    assert!(!report.is_clean());
    assert!(agreement_holds(&report));
}

#[test]
fn partition_healing_before_raise_is_harmless() {
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_partition(
            [NodeId::new(0)],
            SimTime::ZERO,
            SimTime::from_micros(1), // heals before the raise at t=2
        ));
    let report = workloads::case1(5, config).run();
    assert!(report.is_clean());
    assert_eq!(report.resolutions.len(), 1);
}

#[test]
fn loss_sweep_never_violates_agreement() {
    // Sweep drop probabilities; resolution may stall (loss breaks the
    // reliability assumption) but committed handlers always agree.
    for (i, drop) in [0.01, 0.05, 0.1, 0.3].iter().enumerate() {
        for seed in 0..10u64 {
            let config = NetConfig::default()
                .with_seed(seed.wrapping_mul(31).wrapping_add(i as u64))
                .with_faults(FaultPlan::none().with_drop_probability(*drop));
            let report = workloads::case3(5, config).run();
            assert!(
                agreement_holds(&report),
                "agreement violated at drop={drop} seed={seed}"
            );
        }
    }
}

#[test]
fn crash_of_the_prospective_resolver_stalls_cleanly_without_failover() {
    // The max raiser (the resolver-to-be) crashes mid-protocol. The
    // paper's literal §4.2 machine (failover off) has no failure
    // handling: nobody may usurp the commit, so the run stalls with no
    // resolution — detectably, and without violating agreement.
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(
            // In case3(5) the raisers are O0..O4; resolver is O4.
            FaultPlan::none().with_crash(NodeId::new(4), SimTime::from_micros(50)),
        );
    let run = || {
        workloads::case3(5, config.clone())
            .with_failover(false)
            .run()
    };
    let report = run();
    assert!(report.resolutions.is_empty());
    assert!(!report.is_clean());
    assert!(agreement_holds(&report));
    // The stuck objects (the frozen victim included) are listed in
    // ascending node order, and print the same on every run.
    let everyone: Vec<NodeId> = (0..5).map(NodeId::new).collect();
    assert_eq!(report.deadlocked, everyone);
    assert_eq!(run().to_string(), report.to_string());
}

#[test]
fn crash_of_the_prospective_resolver_fails_over_by_default() {
    // Same crash, failover on (the default): the survivors suspect O4,
    // re-elect the next-highest live raiser O3, and the resolution
    // completes over the full raised set — survivors all handle the
    // same exception.
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_crash(NodeId::new(4), SimTime::from_micros(50)));
    let report = workloads::case3(5, config).run();
    assert_eq!(report.resolutions.len(), 1);
    assert_eq!(report.resolutions[0].resolver, NodeId::new(3));
    assert!(agreement_holds(&report));
    // Every survivor (not the crashed O4) starts the resolved handler.
    assert_eq!(report.handlers_for(report.resolutions[0].action).len(), 4);
}

#[test]
fn crash_after_commit_does_not_disturb_survivors() {
    // The resolver commits at ~t=400µs (two latency rounds + slack);
    // crashing a bystander *after* the commit leaves the others intact.
    let config = NetConfig::default()
        .with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
        .with_faults(FaultPlan::none().with_crash(NodeId::new(0), SimTime::from_millis(50)));
    let report = workloads::case1(5, config).run();
    // Everything finished long before the crash point.
    assert!(report.is_clean());
    assert_eq!(report.handlers_for(report.resolutions[0].action).len(), 5);
}

#[test]
fn duplicates_and_jitter_combined_preserve_all_invariants() {
    for seed in 0..10 {
        let config = NetConfig::default()
            .with_seed(seed)
            .with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(10),
                max: SimTime::from_micros(2_000),
            })
            .with_faults(FaultPlan::none().with_duplicate_probability(0.25));
        let report = workloads::general(6, 3, 2, config).run();
        assert!(report.is_clean(), "seed {seed}: {report}");
        assert!(agreement_holds(&report), "seed {seed}");
        assert_eq!(report.resolutions.len(), 1, "seed {seed}");
        // Duplicated deliveries may trigger duplicate ACKs (the
        // protocol does not dedupe; extra ACKs are harmless), so the
        // law becomes a lower bound here.
        assert!(
            report.total_messages() >= caex::analysis::messages_general(6, 3, 2),
            "seed {seed}"
        );
    }
}
