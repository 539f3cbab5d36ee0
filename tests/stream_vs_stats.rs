//! The obs stream is the one record of a run's messages. These tests
//! hold it against the simulator's own counters: every send and every
//! delivery `NetStats` counts is a `MessageSent` / `MessageReceived`
//! event of the same kind, and the two differ only by what the fault
//! plan dropped or duplicated — for the §4.2 workloads and for both
//! baselines.

use caex::workloads::{self, Workload};
use caex::{central, cr};
use caex_net::{FaultEvent, FaultPlan, LatencyModel, NetConfig, NetStats, NodeId, SimTime};
use caex_obs::{ObsEvent, ObsKind, Recorder};
use caex_tree::{chain_tree, interleaved_reduced_trees, ExceptionId, ReducedTree};
use std::collections::BTreeMap;
use std::sync::Arc;

/// `quiescent`: the run ended with nothing in flight (no delivery cap).
fn assert_stream_matches_stats(name: &str, events: &[ObsEvent], stats: &NetStats, quiescent: bool) {
    let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
    let mut received: BTreeMap<&str, u64> = BTreeMap::new();
    for e in events {
        match e.kind {
            ObsKind::MessageSent { kind, .. } => *sent.entry(kind).or_default() += 1,
            ObsKind::MessageReceived { kind, .. } => *received.entry(kind).or_default() += 1,
            _ => {}
        }
    }
    assert!(!sent.is_empty(), "{name}: the workload sends nothing");

    // Per kind, and in total — so a kind only the counters know shows too.
    assert_eq!(sent, stats.sent_by_kind().collect::<BTreeMap<_, _>>(), "{name}: sends");
    for (kind, count) in &received {
        assert_eq!(*count, stats.delivered_of_kind(kind), "{name}: deliveries of {kind}");
    }
    let (sent, received) = (sent.values().sum::<u64>(), received.values().sum::<u64>());
    assert_eq!(received, stats.delivered_total(), "{name}: deliveries");

    // At quiescence nothing is in flight: a send was received once,
    // twice if duplicated, or never if dropped.
    if quiescent {
        let duplicated = stats.fault_of_kind(FaultEvent::Duplicated.label());
        assert_eq!(
            sent + duplicated,
            received + stats.dropped_total(),
            "{name}: sent + duplicated == received + dropped"
        );
    }
}

fn scenario(name: &str, workload: Workload) -> NetStats {
    let mut recorder = Recorder::new();
    let report = workload.scenario.run_observed(&mut recorder);
    assert_stream_matches_stats(name, &recorder.events, &report.stats, !report.hit_delivery_limit);
    report.stats
}

fn raises(pairs: &[(u32, u32)]) -> Vec<(NodeId, ExceptionId)> {
    pairs.iter().map(|&(node, exc)| (NodeId::new(node), ExceptionId::new(exc))).collect()
}

fn central_run(
    name: &str,
    (n, len): (u32, u32),
    raised: &[(u32, u32)],
    window: SimTime,
    config: NetConfig,
) -> NetStats {
    let mut recorder = Recorder::new();
    let tree = Arc::new(chain_tree(len));
    let report = central::run_observed(
        n,
        tree,
        NodeId::new(0),
        &raises(raised),
        window,
        config,
        &mut recorder,
    );
    assert_stream_matches_stats(name, &recorder.events, &report.stats, true);
    report.stats
}

fn cr_run(
    name: &str,
    (n, len): (u32, u32),
    reduced: Vec<ReducedTree>,
    raised: &[(u32, u32)],
    config: NetConfig,
) {
    let mut recorder = Recorder::new();
    let tree = Arc::new(chain_tree(len));
    let report = cr::run_observed(n, tree, reduced, &raises(raised), config, &mut recorder);
    assert_stream_matches_stats(name, &recorder.events, &report.stats, true);
}

#[test]
fn every_builtin_workloads_stream_matches_the_net_counters() {
    let builds: Vec<(&str, Workload)> = vec![
        ("general(6,3,2)", workloads::general(6, 3, 2, NetConfig::default())),
        ("case1(4)", workloads::case1(4, NetConfig::default())),
        ("case2(4)", workloads::case2(4, NetConfig::default())),
        ("case3(8)", workloads::case3(8, NetConfig::default())),
        ("fig3", workloads::fig3(NetConfig::default())),
        ("example1", workloads::example1(NetConfig::default()).0),
        ("example2", workloads::example2(NetConfig::default()).0),
    ];
    for (name, workload) in builds {
        scenario(name, workload);
    }
}

#[test]
fn the_stream_matches_the_net_counters_under_duplicates_drops_and_a_healing_partition() {
    let mut all = NetStats::default();
    for seed in 0..8 {
        let faults = FaultPlan::none()
            .with_duplicate_probability(0.3)
            .with_drop_probability(0.1)
            .with_healing_partition(
                [NodeId::new(0), NodeId::new(1)],
                SimTime::ZERO,
                SimTime::from_micros(400),
            );
        let config = NetConfig::default().with_seed(seed).with_faults(faults);
        let workload = workloads::general(5, 2, 1, config);
        all.merge(&scenario(&format!("seed {seed}"), workload));
    }
    for fault in [FaultEvent::Duplicated, FaultEvent::Dropped, FaultEvent::PartitionHealed] {
        assert!(all.fault_of_kind(fault.label()) > 0, "{fault:?} never fired");
    }
}

/// The runs `tests/baseline_streams.rs` pins, the central baseline under
/// duplicates and drops, and CR with its highest-numbered participant
/// dead from the start.
#[test]
fn the_baselines_streams_match_the_net_counters() {
    let ms = SimTime::from_millis(1);
    let all_raise: Vec<(u32, u32)> = (1..6).map(|i| (i, i)).collect();
    central_run("central: causal.rs", (6, 6), &all_raise, ms, NetConfig::default());
    let crashed = |node| FaultPlan::none().with_crash(NodeId::new(node), SimTime::ZERO);
    let config = NetConfig::default().with_faults(crashed(0));
    central_run("central: coordinator crashed", (4, 4), &[(1, 1), (2, 2), (3, 3)], ms, config);
    let uniform = NetConfig::default().with_seed(7).with_latency(LatencyModel::Uniform {
        min: SimTime::from_micros(50),
        max: SimTime::from_millis(5),
    });
    let window = SimTime::from_micros(10);
    central_run("central: uniform latency", (4, 4), &[(1, 3), (2, 4)], window, uniform);

    let mut all = NetStats::default();
    for seed in 0..8 {
        let faults = FaultPlan::none().with_duplicate_probability(0.3).with_drop_probability(0.1);
        let config = NetConfig::default().with_seed(seed).with_faults(faults);
        let name = format!("central: seed {seed}");
        all.merge(&central_run(&name, (6, 6), &all_raise, ms, config));
    }
    for fault in [FaultEvent::Duplicated, FaultEvent::Dropped] {
        assert!(all.fault_of_kind(fault.label()) > 0, "{fault:?} never fired");
    }

    let chain = chain_tree(8);
    let (odd, even) = interleaved_reduced_trees(&chain, 8);
    cr_run("cr: domino", (2, 8), vec![odd, even], &[(1, 8)], NetConfig::default());
    let parties = cr::interleaved_parties(&chain_tree(6), 6, 3);
    cr_run("cr: 3 parties", (3, 6), parties, &[(2, 5), (0, 6)], NetConfig::default());
    let full = || vec![ReducedTree::full(&chain_tree(4)); 3];
    cr_run("cr: full handlers", (3, 4), full(), &[(0, 2)], NetConfig::default());
    let config = NetConfig::default().with_faults(crashed(2));
    cr_run("cr: highest crashed", (3, 4), full(), &[(0, 2)], config);
}
