//! Integration tests for `caex_obs::causal` over the real engines:
//! golden happens-before DAG and critical-path snapshots for the
//! paper's Examples 1 and 2 on the simulator, the same structural
//! guarantees on the thread/central/cr engines, and property tests
//! that the DAG stays acyclic with every receive matched to a send
//! over random `(N, P, Q)` workloads.

use caex::workloads;
use caex_net::{NetConfig, NodeId, SimTime};
use caex_obs::causal::{render_table, CausalGraph, CriticalPath, Phase};
use caex_obs::Recorder;

/// Runs a sim workload under a recorder and builds its DAG.
fn graph_of(workload: workloads::Workload) -> CausalGraph {
    let mut recorder = Recorder::new();
    let _ = workload.scenario.run_observed(&mut recorder);
    CausalGraph::build(&recorder.events)
}

fn phase_us(path: &CriticalPath, phase: Phase) -> u64 {
    path.phase_totals()
        .into_iter()
        .find(|(p, _)| *p == phase)
        .map_or(0, |(_, us)| us)
}

/// Every critical path's phase durations must telescope to exactly the
/// measured end-to-end latency.
fn assert_phase_sums(paths: &[CriticalPath]) {
    for path in paths {
        let sum: u64 = path.phase_totals().iter().map(|(_, us)| us).sum();
        assert_eq!(sum, path.total_us(), "phase sum breaks on {}", path.span);
    }
}

/// Example 1 (§4.3): the golden DAG shape and critical path. One round
/// resolves; its 300 µs split evenly across raise propagation (the
/// informing `exception` messages), election (the ACK wave), and
/// commit distribution — one 100 µs message hop each under the default
/// constant-latency network.
#[test]
fn example1_golden_dag_and_critical_path() {
    let graph = graph_of(workloads::example1(NetConfig::default()).0);
    assert_eq!(graph.events().len(), 44);
    assert_eq!(graph.edge_count(), 51);
    assert!(graph.is_acyclic());
    assert!(graph.unmatched_receives().is_empty());
    assert!(graph.unmatched_sends().is_empty());

    let paths = graph.critical_paths();
    assert_eq!(paths.len(), 1, "one resolution round");
    let path = &paths[0];
    assert_eq!(path.span.to_string(), "A0#r1");
    assert_eq!(path.total_us(), 300);
    assert_eq!(phase_us(path, Phase::RaisePropagation), 100);
    assert_eq!(phase_us(path, Phase::Election), 100);
    assert_eq!(phase_us(path, Phase::CommitAbort), 100);
    assert_phase_sums(&paths);
    // The path crosses objects over message edges — the latency lives
    // on the wire, not inside any one participant.
    assert!(path.segments.iter().filter(|s| s.via_message).count() >= 3);

    let table = render_table(&paths);
    assert!(table.contains("A0#r1"), "{table}");
    assert!(table.contains("300"), "{table}");
}

/// Example 2 (§4.3, Fig. 4): the golden DAG shape and both rounds'
/// critical paths. The outer action's resolution costs 405 µs — raise
/// propagation dominates (205 µs) because the nested action's
/// completion report rides ahead of the exception wave — while the
/// nested action's round is a single 100 µs message hop.
#[test]
fn example2_golden_dag_and_critical_paths() {
    let graph = graph_of(workloads::example2(NetConfig::default()).0);
    assert_eq!(graph.events().len(), 122);
    assert_eq!(graph.edge_count(), 155);
    assert!(graph.is_acyclic());
    assert!(graph.unmatched_receives().is_empty());
    assert!(graph.unmatched_sends().is_empty());

    let paths = graph.critical_paths();
    assert_eq!(paths.len(), 2, "outer and nested rounds");
    assert_eq!(paths[0].span.to_string(), "A0#r1");
    assert_eq!(paths[0].total_us(), 405);
    assert_eq!(phase_us(&paths[0], Phase::RaisePropagation), 205);
    assert_eq!(phase_us(&paths[0], Phase::Election), 100);
    assert_eq!(phase_us(&paths[0], Phase::CommitAbort), 100);
    assert_eq!(paths[1].span.to_string(), "A2#r1");
    assert_eq!(paths[1].total_us(), 100);
    assert_phase_sums(&paths);
}

/// The centralized baseline's critical path exposes its latency floor:
/// the 1 ms collection window dwarfs the two 100 µs message hops
/// around it, and the window wait is charged to the election phase
/// (the coordinator standing in for an elected resolver).
#[test]
fn central_baseline_critical_path_shows_window_floor() {
    use caex::central;
    use caex_tree::{chain_tree, ExceptionId};
    use std::sync::Arc;

    let raises: Vec<_> = (1..6)
        .map(|i| (NodeId::new(i), ExceptionId::new(i)))
        .collect();
    let mut recorder = Recorder::new();
    let _ = central::run_observed(
        6,
        Arc::new(chain_tree(6)),
        NodeId::new(0),
        &raises,
        SimTime::from_millis(1),
        NetConfig::default(),
        &mut recorder,
    );
    let graph = CausalGraph::build(&recorder.events);
    assert!(graph.is_acyclic());
    assert!(graph.unmatched_receives().is_empty());
    assert!(graph.unmatched_sends().is_empty());
    let paths = graph.critical_paths();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].total_us(), 1_200);
    assert_eq!(phase_us(&paths[0], Phase::Election), 1_000, "window wait");
    assert_phase_sums(&paths);
}

/// The CR baseline's domino (§3.3) shows up in the critical path as a
/// long election phase: each proposal/ack exchange climbs one link of
/// the exception chain before the idealised resolver can commit.
#[test]
fn cr_baseline_critical_path_shows_domino_cost() {
    use caex::cr;
    use caex_tree::{chain_tree, interleaved_reduced_trees, ExceptionId};
    use std::sync::Arc;

    let tree = Arc::new(chain_tree(8));
    let (odd, even) = interleaved_reduced_trees(&tree, 8);
    let mut recorder = Recorder::new();
    let _ = cr::run_observed(
        2,
        tree,
        vec![odd, even],
        &[(NodeId::new(1), ExceptionId::new(8))],
        NetConfig::default(),
        &mut recorder,
    );
    let graph = CausalGraph::build(&recorder.events);
    assert!(graph.is_acyclic());
    assert!(graph.unmatched_receives().is_empty());
    assert!(graph.unmatched_sends().is_empty());
    let paths = graph.critical_paths();
    assert_eq!(paths.len(), 1);
    assert_eq!(paths[0].total_us(), 1_100);
    assert!(
        phase_us(&paths[0], Phase::Election) >= 800,
        "the domino's re-raise rounds dominate: {:?}",
        paths[0].phase_totals()
    );
    assert_phase_sums(&paths);
}

/// The thread engine runs on wall clocks, so its timings are not
/// pinnable — but the causal structure must hold: an acyclic DAG,
/// every receive matched to a send, and the phase-sum identity on
/// every round.
#[test]
fn thread_engine_graph_is_causally_sound() {
    use caex::thread_engine::ThreadRunner;
    use caex::Scenario;
    use caex_action::{ActionRegistry, ActionScope};
    use caex_tree::{chain_tree, Exception, ExceptionId};
    use std::sync::Arc;

    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let a1 = reg
        .declare(ActionScope::top_level(
            "A1",
            (0..3).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .unwrap();
    let mut recorder = Recorder::new();
    let scenario = Scenario::new(Arc::new(reg))
        .enter_all_at(SimTime::ZERO, a1)
        .raise_at(
            SimTime::from_millis(1),
            NodeId::new(0),
            Exception::new(ExceptionId::new(1)),
        );
    let _ = ThreadRunner::new(scenario).run_observed(&mut recorder);
    let graph = CausalGraph::build(&recorder.events);
    assert!(graph.is_acyclic());
    assert!(
        graph.unmatched_receives().is_empty(),
        "orphans at {:?}",
        graph.unmatched_receives()
    );
    let paths = graph.critical_paths();
    assert!(!paths.is_empty(), "the raise resolves in one round");
    assert_phase_sums(&paths);
    assert!(paths[0].segments.iter().any(|s| s.via_message));
}

mod causal_properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_npq() -> impl Strategy<Value = (u32, u32, u32)> {
        (2u32..8).prop_flat_map(|n| {
            (1u32..=n).prop_flat_map(move |p| (0u32..=(n - p)).prop_map(move |q| (n, p, q)))
        })
    }

    proptest! {
        /// Over random `(N, P, Q)` workloads, the happens-before graph
        /// is acyclic, every receive pairs with a send (and vice
        /// versa — the sim delivers everything), and every round's
        /// phase attribution sums exactly to its end-to-end latency.
        #[test]
        fn dag_is_acyclic_and_receives_match((n, p, q) in arb_npq()) {
            let graph = graph_of(workloads::general(n, p, q, NetConfig::default()));
            prop_assert!(graph.is_acyclic());
            prop_assert!(graph.unmatched_receives().is_empty());
            prop_assert!(graph.unmatched_sends().is_empty());
            let paths = graph.critical_paths();
            prop_assert!(!paths.is_empty());
            for path in &paths {
                let sum: u64 = path.phase_totals().iter().map(|(_, us)| us).sum();
                prop_assert_eq!(sum, path.total_us());
            }
        }
    }
}
