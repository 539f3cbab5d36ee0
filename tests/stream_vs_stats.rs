//! The obs stream is the one record of a run's messages. These tests
//! hold it against the simulator's own counters: every send and every
//! delivery `NetStats` counts is a `MessageSent` / `MessageReceived`
//! event of the same kind, and the two differ only by what the fault
//! plan dropped or duplicated.

use caex::workloads::{self, Workload};
use caex_net::{FaultEvent, FaultPlan, NetConfig, NetStats, NodeId, SimTime};
use caex_obs::{ObsKind, Recorder};
use std::collections::BTreeMap;

fn assert_stream_matches_stats(name: &str, workload: Workload) -> NetStats {
    let mut recorder = Recorder::new();
    let report = workload.scenario.run_observed(&mut recorder);
    let stats = &report.stats;

    let mut sent: BTreeMap<&str, u64> = BTreeMap::new();
    let mut received: BTreeMap<&str, u64> = BTreeMap::new();
    for e in &recorder.events {
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
    if !report.hit_delivery_limit {
        let duplicated = stats.fault_of_kind(FaultEvent::Duplicated.label());
        assert_eq!(
            sent + duplicated,
            received + stats.dropped_total(),
            "{name}: sent + duplicated == received + dropped"
        );
    }
    report.stats
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
        assert_stream_matches_stats(name, workload);
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
        all.merge(&assert_stream_matches_stats(&format!("seed {seed}"), workload));
    }
    for fault in [FaultEvent::Duplicated, FaultEvent::Dropped, FaultEvent::PartitionHealed] {
        assert!(all.fault_of_kind(fault.label()) > 0, "{fault:?} never fired");
    }
}
