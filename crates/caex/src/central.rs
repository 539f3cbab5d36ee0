//! A fixed-coordinator resolution baseline — the design the paper's
//! decentralized algorithm implicitly competes with.
//!
//! The obvious alternative to electing a resolver among the raisers is
//! a **fixed central coordinator**: every raiser reports its exception
//! to one designated object, which resolves the collected set against
//! the exception tree and broadcasts the commit. This needs fewer
//! messages — `P` reports + `(N−1)` commits, `O(N)` — but:
//!
//! 1. the coordinator must *wait out a collection window* before
//!    resolving (it cannot know whether more reports are coming; the
//!    paper's algorithm gets that knowledge for free from its
//!    ACK/FIFO discipline), trading latency for messages; and
//! 2. the coordinator is a single point of failure: if it crashes, no
//!    resolution ever happens, whereas the paper's algorithm has no
//!    fixed role — whoever raised and ranks highest resolves.
//!
//! This module executes that design so the trade-off is measured, not
//! asserted. Each object is a `CentralNode` machine on the crate's
//! one simulator host (`host.rs`), under the run's fault plan; the
//! nodes share only the run's constants and the first-raise flag. Like
//! [`crate::cr`], it supports flat (non-nested) actions, which is where
//! the comparison is meaningful.

use crate::host::{Flat, Machine, Outbox, SimHost, Sink};
use caex_net::{Delivery, Kinded, NetConfig, NetStats, NodeId, SimTime};
use caex_obs::{ObsKind, Observer};
use caex_tree::{ExceptionId, ExceptionTree};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Messages of the centralized protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CMsg {
    /// A raiser reports its exception to the coordinator.
    Report {
        /// The raising object.
        from: NodeId,
        /// The raised exception class.
        exc: ExceptionId,
    },
    /// The coordinator's final decision.
    Commit {
        /// The resolved exception class.
        exc: ExceptionId,
    },
    /// Local event: raise here.
    LocalRaise(ExceptionId),
    /// Local event: the coordinator's collection window closed.
    WindowClosed,
}

impl Kinded for CMsg {
    fn kind(&self) -> &'static str {
        match self {
            CMsg::Report { .. } => "central_report",
            CMsg::Commit { .. } => "central_commit",
            CMsg::LocalRaise(_) => "local_raise",
            CMsg::WindowClosed => "local_window",
        }
    }
}

/// Outcome of a centralized run.
#[derive(Debug)]
pub struct CentralReport {
    /// Message statistics (`central_report`, `central_commit`).
    pub stats: NetStats,
    /// The committed exception, if the coordinator survived to commit.
    pub committed: Option<ExceptionId>,
    /// How many objects other than the coordinator received the commit
    /// (each counted once, however many copies reached it).
    pub informed: u32,
    /// Virtual completion time.
    pub finished_at: SimTime,
}

impl CentralReport {
    /// Total protocol messages.
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.stats.sent_total()
    }

    /// `true` if resolution completed and reached every other object.
    #[must_use]
    pub fn resolved_everywhere(&self, n: u32) -> bool {
        self.committed.is_some() && self.informed == n - 1
    }
}

/// One object of the centralized design; only the coordinator collects.
#[derive(Default)]
struct CentralNode {
    collected: Vec<ExceptionId>,
    window_open: bool,
    /// The coordinator's resolution, or the commit this object received.
    committed: Option<ExceptionId>,
}

/// What every node's step shares: the run's constants and whether the
/// first raise (the `ResolutionStart`) has happened.
struct Run {
    nodes: u32,
    tree: Arc<ExceptionTree>,
    coordinator: NodeId,
    window: SimTime,
    started: bool,
}

impl Machine for CentralNode {
    type Event = CMsg;
    type Shared = Run;

    fn step<S: Sink, O: Outbox<Event = CMsg>>(
        &mut self,
        delivery: Delivery<Self::Event>,
        run: &mut Run,
        out: &mut O,
        obs: &mut dyn Observer,
        _: &mut S,
    ) {
        let mut flat = Flat::new(&delivery, run.nodes, out, obs);
        match delivery.payload {
            CMsg::LocalRaise(exc) => {
                if !std::mem::replace(&mut run.started, true) {
                    flat.emit(ObsKind::ResolutionStart);
                }
                flat.emit(ObsKind::Raise { exception: exc });
                if flat.me == run.coordinator {
                    // The coordinator's own exception needs no message.
                    self.collect(exc, run, &mut flat);
                } else {
                    flat.send(run.coordinator, CMsg::Report { from: flat.me, exc });
                }
            }
            CMsg::Report { exc, .. } => self.collect(exc, run, &mut flat),
            CMsg::WindowClosed => {
                let resolved = run
                    .tree
                    .resolve(self.collected.iter().copied())
                    .expect("window opened only after a report");
                self.committed = Some(resolved);
                flat.emit(ObsKind::ResolverElected { resolver: flat.me });
                let raised = self.collected.iter().collect::<BTreeSet<_>>().len() as u32;
                flat.emit(ObsKind::ResolutionCommit { resolved, raised });
                flat.broadcast(&CMsg::Commit { exc: resolved });
            }
            CMsg::Commit { exc } => self.committed = Some(exc),
        }
    }
}

impl CentralNode {
    /// The coordinator takes `exc` in; the first one opens the window.
    fn collect(&mut self, exc: ExceptionId, run: &Run, flat: &mut Flat<'_, CMsg>) {
        self.collected.push(exc);
        if !self.window_open {
            self.window_open = true;
            flat.out.after(flat.me, run.window, CMsg::WindowClosed);
        }
    }
}

/// Executes the centralized design: `n` objects, exceptions raised per
/// `raises` at time zero, a fixed `coordinator`, and a collection
/// `window` after the first report before the coordinator resolves.
///
/// # Panics
///
/// Panics if `raises` is empty.
#[must_use]
pub fn run(
    n: u32,
    tree: Arc<ExceptionTree>,
    coordinator: NodeId,
    raises: &[(NodeId, ExceptionId)],
    window: SimTime,
    net_config: NetConfig,
) -> CentralReport {
    run_observed(n, tree, coordinator, raises, window, net_config, &mut ())
}

/// Like [`run`], but streams [`caex_obs::ObsEvent`]s to `obs`: raises,
/// each `central_report`/`central_commit` message's send and receipt,
/// and — the election being fixed by construction — a `ResolverElected`
/// that always names the coordinator. The whole run is reported as span
/// `A0#r1`, the baseline convention (flat action, single round).
///
/// # Panics
///
/// Panics as [`run`] does.
#[must_use]
pub fn run_observed(
    n: u32,
    tree: Arc<ExceptionTree>,
    coordinator: NodeId,
    raises: &[(NodeId, ExceptionId)],
    window: SimTime,
    net_config: NetConfig,
    obs: &mut dyn Observer,
) -> CentralReport {
    assert!(!raises.is_empty(), "nothing to resolve");
    let nodes = (0..n).map(|_| Some(CentralNode::default())).collect();
    let run = Run { nodes: n, tree, coordinator, window, started: false };
    let mut host = SimHost::new(net_config, nodes, run, u64::MAX);
    for &(node, exc) in raises {
        host.net.schedule_local(SimTime::ZERO, node, CMsg::LocalRaise(exc));
    }
    host.run(obs, &mut ());
    obs.on_run_end(host.net.now());

    let committed = |node| host.node(node).and_then(|c| c.committed);
    let informed = (0..n)
        .map(NodeId::new)
        .filter(|&peer| peer != coordinator && committed(peer).is_some())
        .count() as u32;
    CentralReport {
        committed: committed(coordinator),
        informed,
        finished_at: host.net.now(),
        stats: host.net.into_stats(),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_net::{FaultPlan, LatencyModel};
    use caex_tree::chain_tree;

    fn config() -> NetConfig {
        NetConfig::default().with_latency(LatencyModel::Constant(SimTime::from_micros(100)))
    }

    #[test]
    fn resolves_with_linear_messages() {
        let tree = Arc::new(chain_tree(4));
        let n = 8;
        let raises: Vec<_> = (1..=3)
            .map(|i| (NodeId::new(i), ExceptionId::new(i)))
            .collect();
        let report = run(
            n,
            tree,
            NodeId::new(0),
            &raises,
            SimTime::from_millis(1),
            config(),
        );
        assert_eq!(report.committed, Some(ExceptionId::new(1)));
        assert!(report.resolved_everywhere(n));
        // P reports + (N−1) commits.
        assert_eq!(report.total_messages(), 3 + 7);
    }

    #[test]
    fn coordinator_raise_costs_no_report() {
        let tree = Arc::new(chain_tree(2));
        let report = run(
            4,
            tree,
            NodeId::new(0),
            &[(NodeId::new(0), ExceptionId::new(1))],
            SimTime::from_millis(1),
            config(),
        );
        assert_eq!(report.total_messages(), 3); // commits only
        assert!(report.resolved_everywhere(4));
    }

    #[test]
    fn short_window_misses_late_raisers() {
        // The fundamental weakness the paper's ACK discipline avoids:
        // the window is a guess. A report arriving after it closes is
        // not resolved.
        let tree = Arc::new(chain_tree(4));
        let slow = NetConfig::default().with_latency(LatencyModel::Uniform {
            min: SimTime::from_micros(50),
            max: SimTime::from_millis(5),
        });
        let report = run(
            4,
            Arc::clone(&tree),
            NodeId::new(0),
            &[
                (NodeId::new(1), ExceptionId::new(3)),
                (NodeId::new(2), ExceptionId::new(4)),
            ],
            SimTime::from_micros(10), // far too short
            slow,
        );
        // Something committed, but possibly over an incomplete set —
        // the committed exception may fail to cover the late raise.
        assert!(report.committed.is_some());
    }

    #[test]
    fn coordinator_crash_stalls_everything() {
        let tree = Arc::new(chain_tree(2));
        let crashed =
            config().with_faults(FaultPlan::none().with_crash(NodeId::new(0), SimTime::ZERO));
        let report = run(
            5,
            tree,
            NodeId::new(0),
            &[(NodeId::new(2), ExceptionId::new(1))],
            SimTime::from_millis(1),
            crashed,
        );
        assert_eq!(report.committed, None);
        assert!(!report.resolved_everywhere(5));
    }

    #[test]
    fn informed_counts_peers_not_duplicated_commits() {
        let duplicating =
            config().with_faults(FaultPlan::none().with_duplicate_probability(1.0));
        let report = run(
            4,
            Arc::new(chain_tree(4)),
            NodeId::new(0),
            &[(NodeId::new(1), ExceptionId::new(2))],
            SimTime::from_millis(1),
            duplicating,
        );
        assert_eq!(report.stats.delivered_of_kind("central_commit"), 6);
        assert_eq!(report.informed, 3);
        assert!(report.resolved_everywhere(4));
    }

    #[test]
    fn coordinator_is_the_hot_spot() {
        let tree = Arc::new(chain_tree(8));
        let n = 9;
        let raises: Vec<_> = (1..n)
            .map(|i| (NodeId::new(i), ExceptionId::new(i.min(8))))
            .collect();
        let report = run(
            n,
            tree,
            NodeId::new(0),
            &raises,
            SimTime::from_millis(1),
            config(),
        );
        // All reports converge on the coordinator.
        let (hottest, load) = report.stats.hottest_receiver().unwrap();
        assert_eq!(hottest, NodeId::new(0));
        assert_eq!(load, (n - 1) as u64);
    }

    #[test]
    fn window_dominates_latency() {
        // The price of fewer messages: the coordinator always waits the
        // full window, even when only one exception exists.
        let tree = Arc::new(chain_tree(2));
        let window = SimTime::from_millis(10);
        let report = run(
            3,
            tree,
            NodeId::new(0),
            &[(NodeId::new(1), ExceptionId::new(1))],
            window,
            config(),
        );
        assert!(report.finished_at >= window);
    }
}
