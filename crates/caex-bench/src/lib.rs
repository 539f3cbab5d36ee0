//! Experiment runners regenerating every table and figure of the
//! paper's evaluation (see `EXPERIMENTS.md` at the repository root for
//! the experiment index and DESIGN.md §5 for the mapping).
//!
//! The paper (ICDCS'96) is an algorithm-and-analysis paper: its
//! evaluation artifacts are the message-complexity formulas of §4.4,
//! the two worked examples of §4.3, the nested-action figures and the
//! §3.3 domino analysis. Each function here *executes* the protocol on
//! the corresponding workload and returns rows pairing the measured
//! value with the paper's prediction. The `tables` binary prints them;
//! unit tests pin the shapes (wall-clock timing lives in `bench/`).


pub mod causal_bench;
pub mod obs_bench;

use caex::{analysis, cr, workloads, NestedStrategy, Scenario};
use caex_action::{AbortionOutcome, ActionRegistry, ActionScope, HandlerTable};
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId};
use std::sync::Arc;

/// A `(measured, predicted)` pair for one sweep point.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Point {
    /// Sweep coordinate (N, chain length, depth, …).
    pub x: u64,
    /// Messages (or µs) actually executed.
    pub measured: u64,
    /// The paper's closed-form prediction (0 when none exists).
    pub predicted: u64,
}

impl Point {
    /// `true` when measured equals predicted exactly.
    #[must_use]
    pub fn exact(&self) -> bool {
        self.measured == self.predicted
    }
}

/// E1 — §4.4 case 1 (`3(N−1)`) over a sweep of N.
#[must_use]
pub fn table_case1(ns: &[u32]) -> Vec<Point> {
    ns.iter()
        .map(|&n| Point {
            x: n as u64,
            measured: workloads::case1(n, NetConfig::default())
                .run()
                .total_messages(),
            predicted: analysis::messages_case1(n as u64),
        })
        .collect()
}

/// E2 — §4.4 case 2 (`3N(N−1)`) over a sweep of N.
#[must_use]
pub fn table_case2(ns: &[u32]) -> Vec<Point> {
    ns.iter()
        .map(|&n| Point {
            x: n as u64,
            measured: workloads::case2(n, NetConfig::default())
                .run()
                .total_messages(),
            predicted: analysis::messages_case2(n as u64),
        })
        .collect()
}

/// E3 — §4.4 case 3 (`(N−1)(2N+1)`) over a sweep of N.
#[must_use]
pub fn table_case3(ns: &[u32]) -> Vec<Point> {
    ns.iter()
        .map(|&n| Point {
            x: n as u64,
            measured: workloads::case3(n, NetConfig::default())
                .run()
                .total_messages(),
            predicted: analysis::messages_case3(n as u64),
        })
        .collect()
}

/// One row of the E4 general-law grid.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GridPoint {
    /// Raiser count.
    pub p: u32,
    /// Nested-object count.
    pub q: u32,
    /// Executed messages.
    pub measured: u64,
    /// `(N−1)(2P+3Q+1)`.
    pub predicted: u64,
}

/// E4 — the full `(P, Q)` grid of the general law for one N.
#[must_use]
pub fn table_general_grid(n: u32) -> Vec<GridPoint> {
    let mut rows = Vec::new();
    for p in 1..=n {
        for q in 0..=(n - p) {
            let measured = workloads::general(n, p, q, NetConfig::default())
                .run()
                .total_messages();
            rows.push(GridPoint {
                p,
                q,
                measured,
                predicted: analysis::messages_general(n as u64, p as u64, q as u64),
            });
        }
    }
    rows
}

/// One row of the E5 comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CrComparison {
    /// Participant count.
    pub n: u32,
    /// New algorithm's messages on its worst case (all raise).
    pub new_messages: u64,
    /// CR messages on the domino workload (chain length `2N`,
    /// interleaved reduced trees, one raise).
    pub cr_messages: u64,
}

impl CrComparison {
    /// CR-to-new message ratio.
    #[must_use]
    pub fn ratio(&self) -> f64 {
        self.cr_messages as f64 / self.new_messages as f64
    }
}

/// E5 — CR (O(N³) domino workload) versus the new algorithm (its own
/// worst case: everyone raises).
#[must_use]
pub fn table_cr_vs_new(ns: &[u32]) -> Vec<CrComparison> {
    ns.iter()
        .map(|&n| {
            let new_messages = workloads::case3(n, NetConfig::default())
                .run()
                .total_messages();
            let len = 2 * n;
            let tree = Arc::new(chain_tree(len));
            let reduced = cr::interleaved_parties(&tree, len, n);
            let cr_messages = cr::run(
                n,
                tree,
                reduced,
                &[(NodeId::new(0), ExceptionId::new(len))],
                NetConfig::default(),
            )
            .total_messages();
            CrComparison {
                n,
                new_messages,
                cr_messages,
            }
        })
        .collect()
}

/// One row of the E6 domino table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DominoPoint {
    /// Chain length of the exception tree.
    pub chain_len: u32,
    /// Exceptions raised under CR (original + third-source re-raises).
    pub cr_raised: u32,
    /// Exceptions raised under the new algorithm (always the original
    /// one: handlers exist for everything, no third source).
    pub new_raised: u32,
    /// CR messages.
    pub cr_messages: u64,
}

/// E6 — the §3.3 domino effect: chain length sweep with two-party
/// interleaved reduced trees; the new algorithm's count stays at 1.
#[must_use]
pub fn table_domino(lens: &[u32]) -> Vec<DominoPoint> {
    lens.iter()
        .map(|&len| {
            let tree = Arc::new(chain_tree(len));
            let (odd, even) = caex_tree::interleaved_reduced_trees(&tree, len);
            let report = cr::run(
                2,
                tree,
                vec![odd, even],
                &[(NodeId::new(1), ExceptionId::new(len))],
                NetConfig::default(),
            );
            DominoPoint {
                chain_len: len,
                cr_raised: report.raised_total,
                new_raised: 1,
                cr_messages: report.total_messages(),
            }
        })
        .collect()
}

/// One row of the E9 strategy comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct StrategyPoint {
    /// Remaining nested-action duration in µs (`u64::MAX` = belated /
    /// never completes).
    pub nested_remaining_us: u64,
    /// Commit time under Fig. 1(b) abort (µs).
    pub abort_commit_us: u64,
    /// Commit time under Fig. 1(a) wait (µs); `None` = deadlock.
    pub wait_commit_us: Option<u64>,
}

fn strategy_scenario(
    strategy: NestedStrategy,
    remaining: Option<SimTime>,
    abort_cost: SimTime,
) -> Option<u64> {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let a1 = reg
        .declare(ActionScope::top_level(
            "A1",
            (0..4).map(NodeId::new),
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
    table.on_abort(abort_cost, || AbortionOutcome::Aborted);
    let report = Scenario::new(Arc::new(reg))
        .with_strategy(strategy)
        .enter_all_at(SimTime::ZERO, a1)
        .enter_at(SimTime::from_micros(1), NodeId::new(1), a2)
        .handlers(NodeId::new(1), a2, table)
        .nested_remaining(NodeId::new(1), a2, remaining)
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(0),
            Exception::new(ExceptionId::new(1)),
        )
        .run();
    report.resolution_for(a1).map(|r| r.at.as_micros())
}

/// E9 — Fig. 1(a) wait versus Fig. 1(b) abort across nested-action
/// remaining durations; the final row is the belated-participant case
/// where waiting deadlocks.
#[must_use]
pub fn table_strategies(remaining_us: &[u64], abort_cost_us: u64) -> Vec<StrategyPoint> {
    let abort_cost = SimTime::from_micros(abort_cost_us);
    let mut rows: Vec<StrategyPoint> = remaining_us
        .iter()
        .map(|&us| StrategyPoint {
            nested_remaining_us: us,
            abort_commit_us: strategy_scenario(
                NestedStrategy::Abort,
                Some(SimTime::from_micros(us)),
                abort_cost,
            )
            .expect("abort strategy always commits"),
            wait_commit_us: strategy_scenario(
                NestedStrategy::Wait,
                Some(SimTime::from_micros(us)),
                abort_cost,
            ),
        })
        .collect();
    rows.push(StrategyPoint {
        nested_remaining_us: u64::MAX,
        abort_commit_us: strategy_scenario(NestedStrategy::Abort, None, abort_cost)
            .expect("abort strategy ignores belated nested actions"),
        wait_commit_us: strategy_scenario(NestedStrategy::Wait, None, abort_cost),
    });
    rows
}

/// One row of the E11 abortion-delay table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct DepthPoint {
    /// Nesting depth of the deepest object.
    pub depth: u32,
    /// Per-level abortion-handler cost (µs).
    pub handler_cost_us: u64,
    /// Commit time of the outer resolution (µs).
    pub commit_us: u64,
}

/// E11 — resolution delay versus nesting depth and abortion-handler
/// cost (§4.4: "the proposed algorithm may suffer some delays because
/// of the execution of abortion handlers in nested actions").
#[must_use]
pub fn table_abort_depth(depths: &[u32], handler_cost_us: u64) -> Vec<DepthPoint> {
    depths
        .iter()
        .map(|&depth| {
            let tree = Arc::new(chain_tree(2));
            let mut reg = ActionRegistry::new();
            let a1 = reg
                .declare(ActionScope::top_level(
                    "A1",
                    [NodeId::new(0), NodeId::new(1)],
                    Arc::clone(&tree),
                ))
                .unwrap();
            let mut parent = a1;
            let mut nested = Vec::new();
            for d in 0..depth {
                parent = reg
                    .declare(ActionScope::nested(
                        format!("D{d}"),
                        [NodeId::new(1)],
                        Arc::clone(&tree),
                        parent,
                    ))
                    .unwrap();
                nested.push(parent);
            }
            let mut scenario = Scenario::new(Arc::new(reg)).enter_all_at(SimTime::ZERO, a1);
            for (d, &na) in nested.iter().enumerate() {
                let mut table = HandlerTable::recover_all(Arc::clone(&tree));
                table.on_abort(SimTime::from_micros(handler_cost_us), || {
                    AbortionOutcome::Aborted
                });
                scenario = scenario
                    .enter_at(SimTime::from_micros(1 + d as u64), NodeId::new(1), na)
                    .handlers(NodeId::new(1), na, table);
            }
            let report = scenario
                .raise_at(
                    SimTime::from_micros(100),
                    NodeId::new(0),
                    Exception::new(ExceptionId::new(1)),
                )
                .run();
            DepthPoint {
                depth,
                handler_cost_us,
                commit_us: report
                    .resolution_for(a1)
                    .expect("resolution commits")
                    .at
                    .as_micros(),
            }
        })
        .collect()
}

/// E12 — the no-overhead claim: happy-path runs send zero protocol
/// messages regardless of N; returns `(n, messages)` pairs.
#[must_use]
pub fn table_no_overhead(ns: &[u32]) -> Vec<(u32, u64)> {
    ns.iter()
        .map(|&n| {
            let tree = Arc::new(chain_tree(1));
            let mut reg = ActionRegistry::new();
            let a1 = reg
                .declare(ActionScope::top_level(
                    "A1",
                    (0..n).map(NodeId::new),
                    Arc::clone(&tree),
                ))
                .unwrap();
            let mut scenario = Scenario::new(Arc::new(reg)).enter_all_at(SimTime::ZERO, a1);
            for i in 0..n {
                scenario = scenario.complete_at(SimTime::from_micros(100), NodeId::new(i), a1);
            }
            (n, scenario.run().total_messages())
        })
        .collect()
}

/// E7/E8 helper — run both worked examples and report
/// `(example, resolver, resolved, messages)` rows.
#[must_use]
pub fn table_examples() -> Vec<(String, NodeId, ExceptionId, u64)> {
    let (w1, ids1) = workloads::example1(NetConfig::default());
    let r1 = w1.run();
    let res1 = r1.resolution_for(ids1.a1).expect("example 1 resolves");
    let (w2, ids2) = workloads::example2(NetConfig::default());
    let r2 = w2.run();
    let res2 = r2.resolution_for(ids2.a1).expect("example 2 resolves");
    vec![
        (
            "Example 1 (§4.3)".into(),
            res1.resolver,
            res1.resolved.id(),
            r1.total_messages(),
        ),
        (
            "Example 2 (§4.3, Fig. 4)".into(),
            res2.resolver,
            res2.resolved.id(),
            r2.total_messages(),
        ),
    ]
}

/// One row of the E13 multicast table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct MulticastPoint {
    /// Participant count.
    pub n: u32,
    /// Point-to-point messages (the executed protocol).
    pub point_to_point: u64,
    /// Fan-outs = multicasts the §4.5 reliable-multicast regime needs.
    pub multicasts: u64,
    /// The closed form `P + 2Q + 1`.
    pub predicted_multicasts: u64,
}

/// E13 — §4.5: point-to-point messages versus the reliable-multicast
/// count on the case-2 workload (1 raiser, N−1 nested).
#[must_use]
pub fn table_multicast(ns: &[u32]) -> Vec<MulticastPoint> {
    ns.iter()
        .map(|&n| {
            let report = workloads::case2(n, NetConfig::default()).run();
            MulticastPoint {
                n,
                point_to_point: report.total_messages(),
                multicasts: report.multicasts_total(),
                predicted_multicasts: analysis::multicasts_general(n as u64, 1, (n - 1) as u64),
            }
        })
        .collect()
}

/// One row of the E14 resolver-group table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct GroupPoint {
    /// Resolver-group size.
    pub k: u32,
    /// Executed messages.
    pub measured: u64,
    /// `(N−1)(2P+3Q+1) + (min(k,P)−1)(N−1)`.
    pub predicted: u64,
}

/// E14 — the §4.4 fault-tolerance extension: resolver groups add only a
/// constant commit factor.
#[must_use]
pub fn table_resolver_group(n: u32, p: u32, ks: &[u32]) -> Vec<GroupPoint> {
    ks.iter()
        .map(|&k| {
            let w = workloads::general(n, p, 0, NetConfig::default());
            let report = w.scenario.with_resolver_group(k).run();
            GroupPoint {
                k,
                measured: report.total_messages(),
                predicted: analysis::messages_general_grouped(n as u64, p as u64, 0, k as u64),
            }
        })
        .collect()
}

/// E15 — FIFO ablation: protocol anomalies (broken agreement,
/// incomplete raiser visibility, stuck objects) across seeds, with and
/// without the §4.2 FIFO-channel assumption. Returns
/// `(anomalies_with_fifo, anomalies_without_fifo, seeds)`.
#[must_use]
pub fn table_fifo_ablation(seeds: u64) -> (u32, u32, u64) {
    use caex_net::LatencyModel;
    let count = |fifo: bool| -> u32 {
        let mut anomalies = 0;
        for seed in 0..seeds {
            let config = NetConfig::default()
                .with_latency(LatencyModel::Uniform {
                    min: SimTime::from_micros(1),
                    max: SimTime::from_micros(5_000),
                })
                .with_seed(seed)
                .with_fifo(fifo);
            let report = workloads::case3(6, config).run();
            let broken_agreement = report.resolutions.iter().any(|r| {
                let handled: Vec<_> = report
                    .handler_starts
                    .iter()
                    .filter(|h| h.action == r.action)
                    .map(|h| h.exc.id())
                    .collect();
                handled.windows(2).any(|w| w[0] != w[1])
            });
            let incomplete = report
                .resolutions
                .first()
                .is_some_and(|r| r.raised.len() < 6);
            if !report.is_clean() || broken_agreement || incomplete {
                anomalies += 1;
            }
        }
        anomalies
    };
    (count(true), count(false), seeds)
}

/// One row of the E16 byte-volume table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BytesPoint {
    /// Participant count.
    pub n: u32,
    /// Executed messages.
    pub messages: u64,
    /// Wire bytes under the `caex::codec` encoding.
    pub wire_bytes: u64,
}

/// E16 — §2.1 "narrow bandwidth" accounting: wire bytes of the case-3
/// workload across N.
#[must_use]
pub fn table_wire_bytes(ns: &[u32]) -> Vec<BytesPoint> {
    ns.iter()
        .map(|&n| {
            let report = workloads::case3(n, NetConfig::default()).run();
            BytesPoint {
                n,
                messages: report.total_messages(),
                wire_bytes: report.wire_bytes,
            }
        })
        .collect()
}

/// One row of the E17 leave-protocol table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct LeavePoint {
    /// Participant count.
    pub n: u32,
    /// Messages under the centralized manager (always 0).
    pub managed: u64,
    /// Messages under the decentralized protocol.
    pub distributed: u64,
    /// The closed form `N(N−1)`.
    pub predicted: u64,
}

/// E17 — §4's "(centralized or decentralized) manager": the message
/// cost of the synchronized leave under both coordination styles, on an
/// exception-free completing action.
#[must_use]
pub fn table_leave_protocols(ns: &[u32]) -> Vec<LeavePoint> {
    use caex::LeaveMode;
    let run = |n: u32, mode: LeaveMode| -> u64 {
        let tree = Arc::new(chain_tree(1));
        let mut reg = ActionRegistry::new();
        let a = reg
            .declare(ActionScope::top_level("A", (0..n).map(NodeId::new), tree))
            .unwrap();
        let mut s = Scenario::new(Arc::new(reg))
            .with_leave_mode(mode)
            .enter_all_at(SimTime::ZERO, a);
        for i in 0..n {
            s = s.complete_at(SimTime::from_micros(10), NodeId::new(i), a);
        }
        s.run().total_messages()
    };
    ns.iter()
        .map(|&n| LeavePoint {
            n,
            managed: run(n, LeaveMode::Managed),
            distributed: run(n, LeaveMode::Distributed),
            predicted: analysis::leave_messages(n as u64),
        })
        .collect()
}

/// One row of the E18 centralized-vs-elected comparison.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CentralPoint {
    /// Participant count.
    pub n: u32,
    /// Messages under the paper's raiser-elected resolver.
    pub elected_messages: u64,
    /// Messages under a fixed central coordinator on the same raises.
    pub central_messages: u64,
    /// Commit latency (µs) of the elected design.
    pub elected_latency_us: u64,
    /// Commit latency (µs) of the central design with a safe (1 ms)
    /// collection window.
    pub central_latency_us: u64,
    /// Whether the central design, given a *tight* (100 µs) window
    /// under jittery latency, committed an exception that fails to
    /// cover every raised one — the correctness risk a guessed window
    /// carries and the paper's ACK discipline eliminates.
    pub central_incomplete_with_tight_window: bool,
}

/// E18 — the design ablation behind the paper's decentralization: a
/// fixed coordinator needs only `O(N)` messages, but it must *guess* a
/// collection window (latency floor when safe, incomplete resolution
/// when tight) and concentrates failure in one node ([`caex::central`]
/// unit tests pin the crash behaviour). The paper's design pays
/// `O(N²)` messages for window-free exactness and no fixed role.
#[must_use]
pub fn table_central_vs_elected(ns: &[u32]) -> Vec<CentralPoint> {
    use caex::central;
    use caex_net::LatencyModel;
    ns.iter()
        .map(|&n| {
            let tree = Arc::new(chain_tree(n));
            // All non-coordinator objects raise (P = N−1): an
            // exception storm the coordinator must collect.
            let raises: Vec<_> = (1..n)
                .map(|i| (NodeId::new(i), ExceptionId::new(i)))
                .collect();
            let central = central::run(
                n,
                Arc::clone(&tree),
                NodeId::new(0),
                &raises,
                SimTime::from_millis(1),
                NetConfig::default(),
            );
            let elected = workloads::general(n, n - 1, 0, NetConfig::default()).run();
            let elected_latency_us = elected.resolutions.first().map_or(0, |r| r.at.as_micros());

            // Tight window + jitter: does the central commit cover all?
            let jittery = NetConfig::default().with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(20),
                max: SimTime::from_millis(2),
            });
            let tight = central::run(
                n,
                Arc::clone(&tree),
                NodeId::new(0),
                &raises,
                SimTime::from_micros(100),
                jittery,
            );
            let incomplete = tight.committed.is_some_and(|committed| {
                raises
                    .iter()
                    .any(|&(_, exc)| !tree.is_ancestor(committed, exc).unwrap())
            });
            CentralPoint {
                n,
                elected_messages: elected.total_messages(),
                central_messages: central.total_messages(),
                elected_latency_us,
                central_latency_us: central.finished_at.as_micros(),
                central_incomplete_with_tight_window: incomplete,
            }
        })
        .collect()
}

/// Renders rows as an aligned text table.
#[must_use]
pub fn render_table(title: &str, header: &[&str], rows: &[Vec<String>]) -> String {
    let mut widths: Vec<usize> = header.iter().map(|h| h.len()).collect();
    for row in rows {
        for (i, cell) in row.iter().enumerate() {
            widths[i] = widths[i].max(cell.len());
        }
    }
    let mut out = format!("\n## {title}\n\n");
    let fmt_row = |cells: &[String], widths: &[usize]| -> String {
        let mut line = String::from("|");
        for (cell, w) in cells.iter().zip(widths) {
            line.push_str(&format!(" {cell:>w$} |"));
        }
        line
    };
    let header_cells: Vec<String> = header.iter().map(|s| (*s).to_owned()).collect();
    out.push_str(&fmt_row(&header_cells, &widths));
    out.push('\n');
    out.push_str(&format!(
        "|{}|",
        widths
            .iter()
            .map(|w| "-".repeat(w + 2))
            .collect::<Vec<_>>()
            .join("|")
    ));
    out.push('\n');
    for row in rows {
        out.push_str(&fmt_row(row, &widths));
        out.push('\n');
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn case_tables_are_exact() {
        for p in table_case1(&[2, 5, 9]) {
            assert!(p.exact(), "{p:?}");
        }
        for p in table_case2(&[2, 5, 9]) {
            assert!(p.exact(), "{p:?}");
        }
        for p in table_case3(&[2, 5, 9]) {
            assert!(p.exact(), "{p:?}");
        }
    }

    #[test]
    fn general_grid_is_exact() {
        for row in table_general_grid(6) {
            assert_eq!(row.measured, row.predicted, "{row:?}");
        }
    }

    #[test]
    fn cr_loses_and_gap_widens() {
        let rows = table_cr_vs_new(&[4, 8, 16]);
        for w in rows.windows(2) {
            assert!(w[0].ratio() >= 1.0, "CR must not beat the new algorithm");
            assert!(
                w[1].ratio() > w[0].ratio(),
                "the gap must widen with N: {rows:?}"
            );
        }
    }

    #[test]
    fn domino_grows_linearly_with_chain() {
        let rows = table_domino(&[4, 8, 16]);
        for row in &rows {
            assert!(row.cr_raised >= row.chain_len, "{row:?}");
            assert_eq!(row.new_raised, 1);
        }
    }

    #[test]
    fn wait_strategy_latency_grows_and_deadlocks() {
        let rows = table_strategies(&[100, 10_000], 50);
        // Abort latency is flat; wait latency tracks the nested action.
        assert!(rows[0].abort_commit_us.abs_diff(rows[1].abort_commit_us) < 10);
        assert!(rows[1].wait_commit_us.unwrap() > rows[0].wait_commit_us.unwrap());
        // Belated row deadlocks under wait, commits under abort.
        let belated = rows.last().unwrap();
        assert!(belated.wait_commit_us.is_none());
        assert!(belated.abort_commit_us > 0);
    }

    #[test]
    fn abort_delay_scales_with_depth_times_cost() {
        let rows = table_abort_depth(&[0, 2, 4], 1_000);
        assert!(rows[1].commit_us >= rows[0].commit_us + 2_000);
        assert!(rows[2].commit_us >= rows[1].commit_us + 2_000);
    }

    #[test]
    fn no_overhead_rows_are_zero() {
        for (n, messages) in table_no_overhead(&[2, 8, 32]) {
            assert_eq!(messages, 0, "N={n}");
        }
    }

    #[test]
    fn examples_table_matches_paper() {
        let rows = table_examples();
        assert_eq!(rows[0].1, NodeId::new(2), "O2 resolves Example 1");
        assert_eq!(rows[1].1, NodeId::new(2), "O2 resolves Example 2");
    }

    #[test]
    fn multicast_table_is_exact_and_flat() {
        let rows = table_multicast(&[4, 8, 16]);
        for row in &rows {
            assert_eq!(row.multicasts, row.predicted_multicasts, "{row:?}");
            assert!(row.point_to_point > row.multicasts);
        }
    }

    #[test]
    fn resolver_group_table_is_exact() {
        for row in table_resolver_group(8, 3, &[1, 2, 3, 5]) {
            assert_eq!(row.measured, row.predicted, "{row:?}");
        }
    }

    #[test]
    fn fifo_ablation_separates_regimes() {
        let (with_fifo, without_fifo, _) = table_fifo_ablation(25);
        assert_eq!(with_fifo, 0);
        assert!(without_fifo > 0);
    }

    #[test]
    fn central_uses_fewer_messages_but_more_latency() {
        let rows = table_central_vs_elected(&[4, 8, 16]);
        for row in &rows {
            assert!(row.central_messages < row.elected_messages, "{row:?}");
            assert!(
                row.central_latency_us >= 1_000,
                "the window floors central latency: {row:?}"
            );
        }
        // The message gap widens: elected is quadratic, central linear.
        let gap = |r: &CentralPoint| r.elected_messages as f64 / r.central_messages as f64;
        assert!(gap(&rows[2]) > gap(&rows[0]));
    }

    #[test]
    fn tight_window_eventually_misses_raisers() {
        // Across the sweep, at least one configuration must exhibit the
        // incomplete-resolution hazard.
        let rows = table_central_vs_elected(&[8, 16, 24]);
        assert!(
            rows.iter().any(|r| r.central_incomplete_with_tight_window),
            "{rows:?}"
        );
    }

    #[test]
    fn leave_table_matches_formula() {
        for row in table_leave_protocols(&[2, 4, 8]) {
            assert_eq!(row.managed, 0, "{row:?}");
            assert_eq!(row.distributed, row.predicted, "{row:?}");
        }
    }

    #[test]
    fn wire_bytes_scale_with_messages() {
        let rows = table_wire_bytes(&[4, 16]);
        for row in &rows {
            // Every message is at least the 9-byte ACK.
            assert!(row.wire_bytes >= 9 * row.messages, "{row:?}");
        }
        assert!(rows[1].wire_bytes > rows[0].wire_bytes);
    }

    #[test]
    fn render_table_aligns() {
        let s = render_table(
            "T",
            &["a", "bb"],
            &[vec!["1".into(), "2".into()], vec!["10".into(), "20".into()]],
        );
        assert!(s.contains("## T"));
        assert!(s.lines().count() >= 5);
    }
}
