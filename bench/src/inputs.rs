//! Workload definitions and seeded input generation.
//!
//! Everything random in a run is decided here, from `--seed`: arrival
//! schedules, the simulator's `NetConfig` seed, which leaves of the
//! exception tree each operation raises, and the detail payloads of
//! the mesh exceptions. The crates under test receive only the
//! generated inputs, never the seed.

use crate::checks::Expected;
use caex::workloads;
use caex::Scenario;
use caex_action::{ActionId, ActionRegistry, ActionScope};
use caex_load::ArrivalSpec;
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::{balanced_tree, chain_tree, Exception, ExceptionId, ExceptionTree};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::sync::Arc;

/// Which system a workload drives.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Kind {
    /// Batches of action instances through a one-shard `FleetEngine`.
    Fleet,
    /// Closed-loop rounds over a persistent `ThreadNet`.
    MeshThreads,
    /// The same rounds over a persistent loopback-TCP `caex-wire` mesh.
    MeshWire,
}

/// One benchmark workload: the §4.4 `(N, P, Q)` shape, its exception
/// tree, and (for fleets) the batch that is one throughput sample.
#[derive(Debug)]
pub struct Workload {
    /// Name used on the command line and in `BENCHMARK.json`.
    pub name: &'static str,
    /// The system driven.
    pub kind: Kind,
    /// Participants per action.
    pub n: u32,
    /// Concurrent raisers per action (the last `p` objects).
    pub p: u32,
    /// Objects inside their own nested action (the first `q` objects).
    pub q: u32,
    /// Depth of the balanced fan-out-2 exception tree whose leaves the
    /// seed picks the raised set from; `None` is the chain tree (and
    /// fixed raised set) that `workloads::general_at` builds.
    pub tree_depth: Option<u32>,
    /// Fleet workloads: action instances per batch.
    pub batch: usize,
}

/// Virtual arrival rate of the fleet workloads (the BENCH_PR10 rate
/// just below the capacity-8 shard's saturation knee).
const ARRIVALS_PER_S: f64 = 6400.0;

/// The four workloads, in report order.
pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "fleet_small",
        kind: Kind::Fleet,
        n: 4,
        p: 2,
        q: 1,
        tree_depth: None,
        batch: 1000,
    },
    Workload {
        name: "fleet_wide",
        kind: Kind::Fleet,
        n: 16,
        p: 8,
        q: 4,
        tree_depth: Some(6),
        batch: 100,
    },
    Workload {
        name: "mesh_threads",
        kind: Kind::MeshThreads,
        n: 3,
        p: 2,
        q: 1,
        tree_depth: Some(3),
        batch: 0,
    },
    Workload {
        name: "mesh_wire",
        kind: Kind::MeshWire,
        n: 3,
        p: 2,
        q: 1,
        tree_depth: Some(3),
        batch: 0,
    },
];

/// Looks a workload up by name.
#[must_use]
pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

impl Workload {
    /// Actions declared per operation: the top-level one plus `q`
    /// singleton nested actions.
    #[must_use]
    pub fn actions_per_op(&self) -> u32 {
        self.q + 1
    }

    /// The §4.4 law's message count for this shape.
    #[must_use]
    pub fn law_messages(&self) -> u64 {
        caex::analysis::messages_general(u64::from(self.n), u64::from(self.p), u64::from(self.q))
    }
}

/// Derives an independent 64-bit stream seed from the run seed and a
/// `(stream, index)` pair (SplitMix64 finaliser), so batches, rounds
/// and purposes never share random state.
#[must_use]
pub fn derive(seed: u64, stream: u64, index: u64) -> u64 {
    let mut z = seed
        .wrapping_add(stream.wrapping_mul(0xD6E8_FEB8_6659_FD93))
        .wrapping_add(index.wrapping_mul(0x9E37_79B9_7F4A_7C15));
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

const STREAM_ARRIVALS: u64 = 1;
const STREAM_NET: u64 = 2;
const STREAM_RAISED: u64 = 3;
const STREAM_DETAIL: u64 = 4;

/// The generated inputs of one operation (a fleet action instance or
/// a mesh round).
#[derive(Debug, Clone, PartialEq)]
pub struct Plan {
    /// First node id the operation occupies.
    pub node_base: u32,
    /// First action id the operation declares.
    pub action_base: u32,
    /// Virtual arrival time (fleet) — zero for mesh rounds.
    pub arrival: SimTime,
    /// The raised exception classes, one per raiser, in raiser order
    /// (object `n−1` raises the first).
    pub raised: Vec<ExceptionId>,
    /// Salt for the exceptions' detail payloads; `None` = no detail.
    pub detail: Option<u64>,
}

/// A workload plus the tree its operations resolve against.
#[derive(Debug)]
pub struct Inputs {
    /// The workload these inputs belong to.
    pub w: &'static Workload,
    /// The exception tree every operation of the workload declares.
    pub tree: Arc<ExceptionTree>,
    leaves: Vec<ExceptionId>,
}

impl Inputs {
    /// Builds the workload's exception tree.
    #[must_use]
    pub fn new(w: &'static Workload) -> Self {
        let tree = match w.tree_depth {
            Some(depth) => balanced_tree(2, depth),
            None => chain_tree(w.p),
        };
        let leaves = tree.leaves();
        Inputs {
            w,
            tree: Arc::new(tree),
            leaves,
        }
    }

    /// The raised set of operation `index` of stream `batch`: `p`
    /// distinct leaves picked by the seed, or `e1..ep` on the chain
    /// tree (where `general_at` fixes them).
    #[must_use]
    pub fn raised_set(&self, seed: u64, batch: u64, index: u64) -> Vec<ExceptionId> {
        let p = self.w.p as usize;
        if self.w.tree_depth.is_none() {
            return (1..=self.w.p).map(ExceptionId::new).collect();
        }
        let mut rng = StdRng::seed_from_u64(derive(derive(seed, STREAM_RAISED, batch), 0, index));
        let mut pool = self.leaves.clone();
        for slot in 0..p {
            let pick = rng.gen_range(slot..pool.len());
            pool.swap(slot, pick);
        }
        pool.truncate(p);
        pool
    }

    /// The plans of fleet batch `batch`: seeded Poisson arrivals and
    /// raised sets, instances relocated to disjoint node/action ranges.
    #[must_use]
    pub fn fleet_batch(&self, seed: u64, batch: u64, size: usize) -> Vec<Plan> {
        let arrivals = ArrivalSpec::Poisson {
            rate_per_sec: ARRIVALS_PER_S,
        }
        .schedule(size, derive(seed, STREAM_ARRIVALS, batch));
        arrivals
            .into_iter()
            .enumerate()
            .map(|(i, arrival)| {
                let i = u32::try_from(i).expect("batch fits u32");
                Plan {
                    node_base: i * self.w.n,
                    action_base: i * self.w.actions_per_op(),
                    arrival,
                    raised: self.raised_set(seed, batch, u64::from(i)),
                    detail: None,
                }
            })
            .collect()
    }

    /// The plan of mesh round `round`: always the same `n` nodes, but
    /// action ids of its own, so a stalled round's late messages can
    /// never be mistaken for a later round's.
    #[must_use]
    pub fn mesh_round(&self, seed: u64, round: u32) -> Plan {
        Plan {
            node_base: 0,
            action_base: round * self.w.actions_per_op(),
            arrival: SimTime::ZERO,
            raised: self.raised_set(seed, 0, u64::from(round)),
            detail: Some(derive(seed, STREAM_DETAIL, u64::from(round))),
        }
    }

    /// The simulator seed of fleet batch `batch`.
    #[must_use]
    pub fn net_config(&self, seed: u64, batch: u64) -> NetConfig {
        NetConfig::default().with_seed(derive(seed, STREAM_NET, batch))
    }

    /// What an operation that raised `raised` must do: resolve to the
    /// outside oracle `ExceptionTree::resolve(raised)`, start one
    /// handler per participant, and exchange the §4.4 law's message
    /// count for that many raisers.
    ///
    /// # Panics
    ///
    /// Panics on an empty set or an id outside the workload's tree.
    #[must_use]
    pub fn expected(&self, raised: &[ExceptionId]) -> Expected {
        let w = self.w;
        Expected {
            handlers: w.n as usize,
            resolved: self
                .tree
                .resolve(raised.iter().copied())
                .expect("raised sets are non-empty and inside the tree"),
            messages: caex::analysis::messages_general(
                u64::from(w.n),
                raised.len() as u64,
                u64::from(w.q),
            ),
        }
    }

    /// Builds the operation's scenario: all `n` objects enter the
    /// top-level action at 0, the first `q` enter their nested action
    /// at `nested_at`, the last `p` raise at `raise_at`.
    ///
    /// Chain-tree workloads go through `workloads::general_at` (which
    /// fixes both offsets at 1 µs / 2 µs); the rest are the same §4.4
    /// structure over the balanced tree with the seeded raised set.
    #[must_use]
    pub fn scenario(&self, plan: &Plan, nested_at: SimTime, raise_at: SimTime) -> Scenario {
        let w = self.w;
        if w.tree_depth.is_none() {
            return workloads::general_at(
                w.n,
                w.p,
                w.q,
                plan.node_base,
                plan.action_base,
                NetConfig::default(),
            )
            .scenario;
        }
        let node = |i: u32| NodeId::new(plan.node_base + i);
        let mut registry = ActionRegistry::with_base(plan.action_base);
        let top = registry
            .declare(ActionScope::top_level(
                "top",
                (0..w.n).map(node),
                Arc::clone(&self.tree),
            ))
            .expect("top-level declaration is valid");
        let nested: Vec<ActionId> = (0..w.q)
            .map(|i| {
                registry
                    .declare(ActionScope::nested(
                        format!("nested-{i}"),
                        [node(i)],
                        Arc::clone(&self.tree),
                        top,
                    ))
                    .expect("singleton nested declaration is valid")
            })
            .collect();
        let mut scenario = Scenario::new(Arc::new(registry)).enter_all_at(SimTime::ZERO, top);
        for (i, &na) in (0..).zip(&nested) {
            scenario = scenario.enter_at(nested_at, node(i), na);
        }
        for (j, &id) in (0..).zip(&plan.raised) {
            let raiser = node(w.n - 1 - j);
            let mut exc = Exception::new(id).with_origin(format!("{raiser}"));
            if let Some(salt) = plan.detail {
                exc = exc.with_detail(format!(
                    "reading {:#018x} outside calibrated envelope",
                    derive(salt, 0, u64::from(j))
                ));
            }
            scenario = scenario.raise_at(raise_at, raiser, exc);
        }
        scenario
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn same_seed_gives_identical_inputs() {
        for w in &WORKLOADS {
            let inputs = Inputs::new(w);
            assert_eq!(inputs.fleet_batch(7, 3, 50), inputs.fleet_batch(7, 3, 50));
            assert_eq!(inputs.mesh_round(7, 9), inputs.mesh_round(7, 9));
            assert_eq!(inputs.net_config(7, 3).seed, inputs.net_config(7, 3).seed);
        }
    }

    #[test]
    fn different_seed_changes_arrivals_and_wide_raised_sets() {
        let wide = Inputs::new(workload("fleet_wide").unwrap());
        let (a, b) = (wide.fleet_batch(1, 0, 50), wide.fleet_batch(2, 0, 50));
        assert!(a.iter().zip(&b).any(|(x, y)| x.raised != y.raised));
        assert!(a.iter().zip(&b).any(|(x, y)| x.arrival != y.arrival));
        assert_ne!(wide.net_config(1, 0).seed, wide.net_config(2, 0).seed);
        // Batches of one seed differ from each other too.
        assert_ne!(wide.fleet_batch(1, 0, 50), wide.fleet_batch(1, 1, 50));
    }

    #[test]
    fn raised_sets_are_distinct_leaves_and_resolve_inside_the_tree() {
        let wide = Inputs::new(workload("fleet_wide").unwrap());
        let leaves = wide.tree.leaves();
        for plan in wide.fleet_batch(5, 0, 100) {
            assert_eq!(plan.raised.len(), 8);
            let mut sorted = plan.raised.clone();
            sorted.sort_unstable();
            sorted.dedup();
            assert_eq!(sorted.len(), 8, "leaves are distinct");
            assert!(plan.raised.iter().all(|e| leaves.contains(e)));
            // Eight distinct leaves of a binary tree always need an
            // inner node to cover them.
            assert!(!leaves.contains(&wide.expected(&plan.raised).resolved));
        }
    }

    #[test]
    fn shapes_obey_the_paper_law() {
        let counts: Vec<u64> = WORKLOADS.iter().map(Workload::law_messages).collect();
        assert_eq!(counts, [24, 435, 16, 16]);
    }
}
