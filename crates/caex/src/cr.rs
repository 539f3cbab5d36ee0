//! The Campbell–Randell (1986) exception-resolution baseline.
//!
//! The paper (§3.3, §4.4) compares its algorithm against the original
//! resolution scheme of Campbell & Randell, *of which only "a draft"
//! was published*. This module executes the behaviour the paper
//! attributes to it, so the `O(N³)`-vs-`O(N²)` comparison runs on real
//! counted messages:
//!
//! 1. **Reduced trees** — each participant holds specific handlers for
//!    only a subset of the action's exceptions.
//! 2. **The "third source"** — a participant informed of an exception it
//!    has no handler for climbs the full tree to the closest ancestor it
//!    *does* handle and raises that as a new exception (another full
//!    broadcast). With interleaved reduced trees over a chain this
//!    yields the §3.3 domino effect.
//! 3. **Everybody resolves** — after every change to its known set,
//!    *each* participant re-resolves and broadcasts its proposal
//!    ("each participant … has to look through it after raising each
//!    exception and after each resolution"); the paper's algorithm
//!    instead elects one resolver.
//!
//! Each participant is a `CrNode` machine on the crate's one simulator
//! host (`host.rs`), under the run's fault plan; the nodes share the
//! tree, the first-raise flag and the raise counter. Termination
//! detection is idealised in CR's favour: when the network goes
//! quiescent, the highest-numbered live participant commits what it
//! knows and broadcasts the commit. Even with that head start the
//! message count grows as `O(N³)` on domino workloads, versus `O(N²)`
//! for the new algorithm.

use crate::host::{Flat, Machine, Outbox, SimHost, Sink};
use caex_net::{Delivery, DeliverySource, Kinded, NetConfig, NetStats, NodeId, SimTime};
use caex_obs::{ObsKind, Observer};
use caex_tree::{ExceptionId, ExceptionTree, ReducedTree};
use std::collections::BTreeSet;
use std::sync::Arc;

/// Messages of the modelled CR protocol.
#[derive(Debug, Clone, PartialEq, Eq)]
pub(crate) enum CrMsg {
    /// An exception broadcast (original raise or third-source re-raise).
    Exception {
        /// The raising participant.
        from: NodeId,
        /// The raised exception class.
        exc: ExceptionId,
    },
    /// Acknowledgement of an exception broadcast.
    Ack {
        /// The acknowledging participant.
        from: NodeId,
    },
    /// A participant's current resolution proposal.
    Proposal {
        /// The proposing participant.
        from: NodeId,
        /// Its locally resolved exception.
        resolved: ExceptionId,
    },
    /// Final commit from the highest-numbered live participant; as a
    /// local event, the order to issue it.
    Commit {
        /// The agreed exception.
        exc: ExceptionId,
    },
    /// Local event: raise this exception here.
    LocalRaise(ExceptionId),
}

impl Kinded for CrMsg {
    fn kind(&self) -> &'static str {
        match self {
            CrMsg::Exception { .. } => "cr_exception",
            CrMsg::Ack { .. } => "cr_ack",
            CrMsg::Proposal { .. } => "cr_proposal",
            CrMsg::Commit { .. } => "cr_commit",
            CrMsg::LocalRaise(_) => "local_raise",
        }
    }
}

/// Report of one CR execution.
#[derive(Debug)]
pub struct CrReport {
    /// Message statistics (kinds `cr_exception`, `cr_ack`,
    /// `cr_proposal`, `cr_commit`).
    pub stats: NetStats,
    /// Total distinct exceptions that ended up raised (original +
    /// third-source re-raises) — the domino length.
    pub raised_total: u32,
    /// The finally committed exception; `None` if no participant was
    /// left alive, or the last one alive knew of no exception, to
    /// commit.
    pub committed: Option<ExceptionId>,
    /// Virtual completion time.
    pub finished_at: SimTime,
}

impl CrReport {
    /// Total protocol messages (excluding local events).
    #[must_use]
    pub fn total_messages(&self) -> u64 {
        self.stats.sent_total()
    }
}

/// One participant of the modelled CR protocol.
struct CrNode {
    reduced: ReducedTree,
    known: BTreeSet<ExceptionId>,
    raised_by_me: BTreeSet<ExceptionId>,
    committed: Option<ExceptionId>,
}

/// What every node's step shares: the tree, whether the first raise
/// (the `ResolutionStart`) has happened, and the raises so far.
struct Run {
    nodes: u32,
    tree: Arc<ExceptionTree>,
    started: bool,
    raised_total: u32,
}

impl Machine for CrNode {
    type Event = CrMsg;
    type Shared = Run;

    fn step<S: Sink, O: Outbox<Event = CrMsg>>(
        &mut self,
        delivery: Delivery<Self::Event>,
        run: &mut Run,
        out: &mut O,
        obs: &mut dyn Observer,
        _: &mut S,
    ) {
        let mut flat = Flat::new(&delivery, run.nodes, out, obs);
        match delivery.payload {
            CrMsg::LocalRaise(exc) => {
                if !std::mem::replace(&mut run.started, true) {
                    flat.emit(ObsKind::ResolutionStart);
                }
                self.raise(exc, run, &mut flat);
                self.propose(&run.tree, &mut flat);
            }
            CrMsg::Exception { from, exc } => {
                flat.send(from, CrMsg::Ack { from: flat.me });
                if self.known.insert(exc) {
                    // Third source: climb to the nearest handled
                    // ancestor and re-raise if it is new knowledge.
                    let climbed = self
                        .reduced
                        .closest_handled_ancestor(&run.tree, exc)
                        .expect("exception ids come from this tree");
                    if climbed != exc
                        && !self.known.contains(&climbed)
                        && !self.raised_by_me.contains(&climbed)
                    {
                        self.raise(climbed, run, &mut flat);
                    }
                    self.propose(&run.tree, &mut flat);
                }
            }
            // Acknowledgements complete a raise and proposals inform;
            // neither carries a further obligation in this model.
            CrMsg::Ack { .. } | CrMsg::Proposal { .. } => {}
            CrMsg::Commit { exc } => {
                self.committed = Some(exc);
                if delivery.source == DeliverySource::Local {
                    // The idealised terminator issues the final commit.
                    flat.emit(ObsKind::ResolverElected { resolver: flat.me });
                    let raised = run.raised_total;
                    flat.emit(ObsKind::ResolutionCommit { resolved: exc, raised });
                    flat.broadcast(&CrMsg::Commit { exc });
                }
            }
        }
    }
}

impl CrNode {
    fn raise(&mut self, exc: ExceptionId, run: &mut Run, flat: &mut Flat<'_, CrMsg>) {
        if !self.known.insert(exc) && !self.raised_by_me.insert(exc) {
            return;
        }
        self.raised_by_me.insert(exc);
        run.raised_total += 1;
        flat.emit(ObsKind::Raise { exception: exc });
        flat.broadcast(&CrMsg::Exception { from: flat.me, exc });
    }

    /// "Each participant … has to look through [its handlers] after
    /// raising each exception and after each resolution": every
    /// knowledge change triggers a local resolution and a proposal
    /// broadcast.
    fn propose(&self, tree: &ExceptionTree, flat: &mut Flat<'_, CrMsg>) {
        let resolved = tree
            .resolve(self.known.iter().copied())
            .expect("known is non-empty here");
        let proposal = self
            .reduced
            .closest_handled_ancestor(tree, resolved)
            .expect("resolved id comes from this tree");
        flat.broadcast(&CrMsg::Proposal {
            from: flat.me,
            resolved: proposal,
        });
    }
}

/// Executes the CR model: `n` participants of one action over `tree`,
/// participant `i` holding `reduced[i]`, with the given initial raises
/// happening concurrently at virtual time zero.
///
/// # Panics
///
/// Panics if `reduced.len() != n` or `initial_raises` is empty.
///
/// # Examples
///
/// The §3.3 domino: a chain of 8 exceptions, two participants with
/// interleaved reduced trees. Raising `e8` re-raises all the way to the
/// root.
///
/// ```
/// use caex::cr;
/// use caex_net::NodeId;
/// use caex_tree::{chain_tree, interleaved_reduced_trees, ExceptionId};
/// use std::sync::Arc;
///
/// let tree = Arc::new(chain_tree(8));
/// let (odd, even) = interleaved_reduced_trees(&tree, 8);
/// let report = cr::run(
///     2,
///     tree,
///     vec![odd, even],
///     &[(NodeId::new(1), ExceptionId::new(8))],
///     Default::default(),
/// );
/// assert!(report.raised_total >= 8); // the domino climbed the chain
/// assert_eq!(report.committed, Some(ExceptionId::ROOT));
/// ```
#[must_use]
pub fn run(
    n: u32,
    tree: Arc<ExceptionTree>,
    reduced: Vec<ReducedTree>,
    initial_raises: &[(NodeId, ExceptionId)],
    net_config: NetConfig,
) -> CrReport {
    run_observed(n, tree, reduced, initial_raises, net_config, &mut ())
}

/// Like [`run`], but streams [`caex_obs::ObsEvent`]s to `obs`: every
/// raise (original and third-source re-raise — the domino is visible
/// as a chain of `Raise` events in one round), every `cr_*` message's
/// send and receipt, and the idealised final election/commit. The whole
/// run is reported as span `A0#r1`, the baseline convention.
///
/// # Panics
///
/// Panics as [`run`] does.
#[must_use]
pub fn run_observed(
    n: u32,
    tree: Arc<ExceptionTree>,
    reduced: Vec<ReducedTree>,
    initial_raises: &[(NodeId, ExceptionId)],
    net_config: NetConfig,
    obs: &mut dyn Observer,
) -> CrReport {
    assert_eq!(
        reduced.len(),
        n as usize,
        "one reduced tree per participant"
    );
    assert!(!initial_raises.is_empty(), "nothing to resolve");
    let nodes = reduced
        .into_iter()
        .map(|reduced| {
            Some(CrNode {
                reduced,
                known: BTreeSet::new(),
                raised_by_me: BTreeSet::new(),
                committed: None,
            })
        })
        .collect();
    let run = Run { nodes: n, tree: Arc::clone(&tree), started: false, raised_total: 0 };
    let mut host = SimHost::new(net_config, nodes, run, u64::MAX);
    for &(node, exc) in initial_raises {
        host.net.schedule_local(SimTime::ZERO, node, CrMsg::LocalRaise(exc));
    }

    // Two phases: the exception storm to quiescence, then the idealised
    // final commit by the highest-numbered live participant.
    host.run(obs, &mut ());
    let terminator = (0..n).rev().map(NodeId::new).find(|&node| !host.net.is_crashed(node));
    let commit = terminator.and_then(|node| {
        let known = &host.node(node)?.known;
        Some((node, tree.resolve(known.iter().copied()).ok()?))
    });
    if let Some((node, exc)) = commit {
        host.net.schedule_local(host.net.now(), node, CrMsg::Commit { exc });
        host.run(obs, &mut ());
    }
    obs.on_run_end(host.net.now());

    CrReport {
        raised_total: host.shared.raised_total,
        committed: terminator.and_then(|node| host.node(node)?.committed),
        finished_at: host.net.now(),
        stats: host.net.into_stats(),
    }
}

/// Builds the interleaved reduced trees for an `n`-participant CR run
/// over a chain of `len` exceptions: participant `i` handles the
/// exceptions `{e : e ≡ i (mod n)}` — the n-way generalisation of the
/// §3.3 two-party domino configuration.
#[must_use]
pub fn interleaved_parties(tree: &ExceptionTree, len: u32, n: u32) -> Vec<ReducedTree> {
    (0..n)
        .map(|i| {
            ReducedTree::new(tree, (1..=len).filter(|e| e % n == i).map(ExceptionId::new))
                .expect("chain ids are valid")
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use caex_tree::{chain_tree, interleaved_reduced_trees};

    fn chain_setup(len: u32) -> (Arc<ExceptionTree>, Vec<ReducedTree>) {
        let tree = Arc::new(chain_tree(len));
        let (odd, even) = interleaved_reduced_trees(&tree, len);
        (tree, vec![odd, even])
    }

    #[test]
    fn single_exception_full_handlers_terminates_fast() {
        let tree = Arc::new(chain_tree(4));
        let reduced = vec![ReducedTree::full(&tree); 3];
        let report = run(
            3,
            tree,
            reduced,
            &[(NodeId::new(0), ExceptionId::new(2))],
            NetConfig::default(),
        );
        assert_eq!(report.raised_total, 1);
        assert_eq!(report.committed, Some(ExceptionId::new(2)));
        // 1 raise: broadcast 2 + acks 2 + proposals from all 3 who
        // learnt something (raiser + 2 receivers) 3*2 + commit 2.
        assert_eq!(report.total_messages(), 2 + 2 + 6 + 2);
    }

    #[test]
    fn domino_effect_reraises_up_the_chain() {
        let (tree, reduced) = chain_setup(8);
        let report = run(
            2,
            tree,
            reduced,
            &[(NodeId::new(1), ExceptionId::new(8))],
            NetConfig::default(),
        );
        // e8 raised; O0 (odds) climbs e8→e7; O1 climbs e7→e6; … until
        // the root is the only refuge.
        assert!(report.raised_total >= 8, "raised {}", report.raised_total);
        assert_eq!(report.committed, Some(ExceptionId::ROOT));
    }

    #[test]
    fn no_domino_with_full_handlers() {
        let tree = Arc::new(chain_tree(8));
        let reduced = vec![ReducedTree::full(&tree); 2];
        let report = run(
            2,
            tree,
            reduced,
            &[(NodeId::new(1), ExceptionId::new(8))],
            NetConfig::default(),
        );
        assert_eq!(report.raised_total, 1);
        assert_eq!(report.committed, Some(ExceptionId::new(8)));
    }

    #[test]
    fn message_count_grows_cubically_on_domino_workloads() {
        // Chain length scales with N: the §4.4 worst case.
        let count = |n: u32| {
            let len = 2 * n;
            let tree = Arc::new(chain_tree(len));
            let reduced = interleaved_parties(&tree, len, n);
            run(
                n,
                tree,
                reduced,
                &[(NodeId::new(0), ExceptionId::new(len))],
                NetConfig::default(),
            )
            .total_messages() as f64
        };
        let ratio = count(16) / count(8);
        // Cubic growth doubles to ~8x; allow a generous band.
        assert!(ratio > 5.5, "ratio {ratio} not cubic-like");
    }

    #[test]
    fn concurrent_raises_converge() {
        let (tree, reduced) = chain_setup(6);
        let report = run(
            2,
            Arc::clone(&tree),
            reduced,
            &[
                (NodeId::new(0), ExceptionId::new(5)),
                (NodeId::new(1), ExceptionId::new(6)),
            ],
            NetConfig::default(),
        );
        assert_eq!(report.committed, Some(ExceptionId::ROOT));
    }

    #[test]
    fn the_highest_live_participant_commits_when_the_highest_has_crashed() {
        use caex_net::FaultPlan;
        let tree = Arc::new(chain_tree(4));
        let crashed = FaultPlan::none().with_crash(NodeId::new(2), SimTime::ZERO);
        let report = run(
            3,
            Arc::clone(&tree),
            vec![ReducedTree::full(&tree); 3],
            &[(NodeId::new(0), ExceptionId::new(2))],
            NetConfig::default().with_faults(crashed),
        );
        assert_eq!(report.committed, Some(ExceptionId::new(2)));
        // O1 commits to O0 and to the dead O2, whose copies are dropped.
        assert_eq!(report.stats.sent_of_kind("cr_commit"), 2);
        assert_eq!(report.stats.delivered_of_kind("cr_commit"), 1);
    }

    #[test]
    fn nobody_commits_when_every_participant_has_crashed() {
        use caex_net::FaultPlan;
        let tree = Arc::new(chain_tree(2));
        let crashed = (0..2).fold(FaultPlan::none(), |plan, i| {
            plan.with_crash(NodeId::new(i), SimTime::ZERO)
        });
        let report = run(
            2,
            Arc::clone(&tree),
            vec![ReducedTree::full(&tree); 2],
            &[(NodeId::new(0), ExceptionId::new(1))],
            NetConfig::default().with_faults(crashed),
        );
        assert_eq!(report.committed, None);
        assert_eq!(report.total_messages(), 0);
    }

    #[test]
    fn interleaved_parties_partition() {
        let tree = chain_tree(9);
        let parties = interleaved_parties(&tree, 9, 3);
        for e in 1..=9u32 {
            let holders = parties
                .iter()
                .filter(|r| r.handles(ExceptionId::new(e)))
                .count();
            assert_eq!(holders, 1, "e{e} held by {holders}");
        }
    }

    #[test]
    #[should_panic(expected = "one reduced tree per participant")]
    fn mismatched_reduced_trees_panic() {
        let tree = Arc::new(chain_tree(2));
        let _ = run(
            3,
            Arc::clone(&tree),
            vec![ReducedTree::full(&tree)],
            &[(NodeId::new(0), ExceptionId::new(1))],
            NetConfig::default(),
        );
    }
}
