//! The two baselines' runs, pinned whole: for each run the rendered obs
//! stream (`caex_obs::text::render`), the `NetStats` `Display` and the
//! report's fields, against `fixtures/baseline_streams.txt` (captured
//! before the baselines moved onto the simulator host).

use caex::{central, cr};
use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimTime};
use caex_obs::{text, Recorder};
use caex_tree::{chain_tree, interleaved_reduced_trees, ExceptionId, ReducedTree};
use std::fmt::Write;
use std::sync::Arc;

fn raises(pairs: &[(u32, u32)]) -> Vec<(NodeId, ExceptionId)> {
    pairs.iter().map(|&(node, exc)| (NodeId::new(node), ExceptionId::new(exc))).collect()
}

fn central_section(
    out: &mut String,
    name: &str,
    (n, len): (u32, u32),
    raised: &[(u32, u32)],
    window: SimTime,
    config: NetConfig,
) {
    let mut recorder = Recorder::new();
    let report = central::run_observed(
        n,
        Arc::new(chain_tree(len)),
        NodeId::new(0),
        &raises(raised),
        window,
        config,
        &mut recorder,
    );
    let _ = write!(
        out,
        "== {name} ==\ncommitted {:?}\ninformed {}\nfinished_at {}\nmessages {}\n\
         -- stats --\n{}-- stream --\n{}",
        report.committed,
        report.informed,
        report.finished_at,
        report.total_messages(),
        report.stats,
        text::render(&recorder.events),
    );
}

fn cr_section(
    out: &mut String,
    name: &str,
    (n, len): (u32, u32),
    reduced: Vec<ReducedTree>,
    raised: &[(u32, u32)],
) {
    let mut recorder = Recorder::new();
    let report = cr::run_observed(
        n,
        Arc::new(chain_tree(len)),
        reduced,
        &raises(raised),
        NetConfig::default(),
        &mut recorder,
    );
    let _ = write!(
        out,
        "== {name} ==\nraised_total {}\ncommitted {:?}\nfinished_at {}\nmessages {}\n\
         -- stats --\n{}-- stream --\n{}",
        report.raised_total,
        report.committed,
        report.finished_at,
        report.total_messages(),
        report.stats,
        text::render(&recorder.events),
    );
}

#[test]
fn baseline_runs_are_pinned() {
    let mut out = String::new();
    let window = SimTime::from_millis(1);
    let raisers: Vec<(u32, u32)> = (1..6).map(|i| (i, i)).collect();
    central_section(&mut out, "central: causal.rs", (6, 6), &raisers, window, NetConfig::default());
    let crashed = FaultPlan::none().with_crash(NodeId::new(0), SimTime::ZERO);
    central_section(
        &mut out,
        "central: coordinator crashed at zero",
        (4, 4),
        &[(1, 1), (2, 2), (3, 3)],
        window,
        NetConfig::default().with_faults(crashed),
    );
    let uniform = NetConfig::default().with_seed(7).with_latency(LatencyModel::Uniform {
        min: SimTime::from_micros(50),
        max: SimTime::from_millis(5),
    });
    central_section(
        &mut out,
        "central: uniform latency, 10 us window",
        (4, 4),
        &[(1, 3), (2, 4)],
        SimTime::from_micros(10),
        uniform,
    );

    let domino = chain_tree(8);
    let (odd, even) = interleaved_reduced_trees(&domino, 8);
    cr_section(&mut out, "cr: 2-party chain-8 domino", (2, 8), vec![odd, even], &[(1, 8)]);
    let parties = cr::interleaved_parties(&chain_tree(6), 6, 3);
    cr_section(
        &mut out,
        "cr: 3 interleaved parties, two raises",
        (3, 6),
        parties,
        &[(2, 5), (0, 6)],
    );
    let full = vec![ReducedTree::full(&chain_tree(4)); 3];
    cr_section(&mut out, "cr: full handlers", (3, 4), full, &[(0, 2)]);

    assert_eq!(out, include_str!("fixtures/baseline_streams.txt"));
}
