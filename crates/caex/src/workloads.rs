//! Canonical workload generators: the exact scenarios of the paper's
//! analysis (§4.4) and worked examples (§4.3), parameterised.
//!
//! Every experiment in `EXPERIMENTS.md` builds its scenarios through
//! this module so that tests, examples and benches agree on what
//! "case 1/2/3", "the general (N, P, Q) workload", "Example 1" and
//! "Example 2 / Fig. 4" mean.

use crate::Scenario;
use caex_action::{AbortionOutcome, ActionId, ActionRegistry, ActionScope, HandlerTable};
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::{chain_tree, Exception, ExceptionId};
use std::sync::Arc;

/// A built canonical workload: the scenario plus the ids needed to
/// interrogate the report.
#[derive(Debug)]
pub struct Workload {
    /// The ready-to-run scenario.
    pub scenario: Scenario,
    /// The action resolution is expected to run in.
    pub action: ActionId,
    /// The declared participants of that action.
    pub participants: Vec<NodeId>,
    /// The `(n, p, q)` of the §4.4 general family this workload is an
    /// instance of ([`crate::analysis::messages_general`]'s arguments);
    /// `None` where no closed form applies.
    pub npq: Option<(u32, u32, u32)>,
}

impl Workload {
    /// Runs the scenario and returns the report.
    #[must_use]
    pub fn run(self) -> crate::RunReport {
        self.scenario.run()
    }

    /// Enables or disables resolver failover — passthrough to
    /// [`Scenario::with_failover`].
    #[must_use]
    pub fn with_failover(mut self, enabled: bool) -> Self {
        self.scenario = self.scenario.with_failover(enabled);
        self
    }

    /// Sets the failure-detector latency — passthrough to
    /// [`Scenario::with_detection_delay`].
    #[must_use]
    pub fn with_detection_delay(mut self, delay: caex_net::SimTime) -> Self {
        self.scenario = self.scenario.with_detection_delay(delay);
        self
    }
}

/// Builds the general §4.4 workload: `n` participants of one top-level
/// action; the first `q` objects each sit in their own nested action;
/// the last `p` objects raise distinct exceptions concurrently. The
/// raiser and nested sets are disjoint, as in the paper's counting.
///
/// Executed message count must equal
/// [`messages_general(n, p, q)`](crate::analysis::messages_general).
///
/// # Panics
///
/// Panics unless `1 ≤ p` and `p + q ≤ n`.
///
/// # Examples
///
/// ```
/// use caex::{analysis, workloads};
///
/// let report = workloads::general(5, 2, 1, Default::default()).run();
/// assert_eq!(report.total_messages(), analysis::messages_general(5, 2, 1));
/// ```
#[must_use]
pub fn general(n: u32, p: u32, q: u32, config: NetConfig) -> Workload {
    general_at(n, p, q, 0, 0, config)
}

/// [`general`], relocated to `node_base`/`action_base` offsets: nodes
/// are `node_base..node_base+n` and action ids start at `action_base`.
/// Distinct bases give a fleet of independent instances disjoint node
/// and `(ActionId, round)` key spaces, so one engine process can
/// multiplex many of them (see [`crate::shard`]).
///
/// # Panics
///
/// Panics unless `1 ≤ p` and `p + q ≤ n`.
#[must_use]
pub fn general_at(
    n: u32,
    p: u32,
    q: u32,
    node_base: u32,
    action_base: u32,
    config: NetConfig,
) -> Workload {
    assert!(p >= 1, "at least one raiser");
    assert!(p + q <= n, "raisers and nested objects must be disjoint");
    let tree = Arc::new(chain_tree(p));
    let mut registry = ActionRegistry::with_base(action_base);
    let top = registry
        .declare(ActionScope::top_level(
            "top",
            (node_base..node_base + n).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("top-level declaration is valid");
    let nested: Vec<ActionId> = (0..q)
        .map(|i| {
            registry
                .declare(ActionScope::nested(
                    format!("nested-{i}"),
                    [NodeId::new(node_base + i)],
                    Arc::clone(&tree),
                    top,
                ))
                .expect("singleton nested declaration is valid")
        })
        .collect();

    let mut scenario = Scenario::new(Arc::new(registry))
        .with_config(config)
        .enter_all_at(SimTime::ZERO, top);
    for (i, &na) in nested.iter().enumerate() {
        scenario = scenario.enter_at(SimTime::from_micros(1), NodeId::new(node_base + i as u32), na);
    }
    // The last p objects raise e1..ep concurrently, before any
    // Exception message can arrive (default latency >> 2us).
    for j in 0..p {
        let raiser = NodeId::new(node_base + n - 1 - j);
        let exc = Exception::new(ExceptionId::new(j + 1)).with_origin(format!("{raiser}"));
        scenario = scenario.raise_at(SimTime::from_micros(2), raiser, exc);
    }
    Workload {
        scenario,
        action: top,
        participants: (node_base..node_base + n).map(NodeId::new).collect(),
        npq: Some((n, p, q)),
    }
}

/// The largest `general:n,p,q` mesh [`by_name`] builds: the port hosts
/// give every node an OS thread or a whole process.
pub(crate) const MAX_NAMED_NODES: u32 = 256;

/// Looks a workload up by its spec string — `example1`, `example2` or
/// `general:n,p,q` — the one table the command lines share.
///
/// # Errors
///
/// Rejects an unknown name, a malformed `general` tail, parameters
/// outside `1 ≤ p`, `p + q ≤ n` and a mesh above 256 nodes.
pub fn by_name(spec: &str, config: NetConfig) -> Result<Workload, String> {
    match spec {
        "example1" => Ok(example1(config).0),
        "example2" => Ok(example2(config).0),
        other => {
            let Some(tail) = other.strip_prefix("general:") else {
                return Err(format!(
                    "unknown workload `{other}` (want example1, example2 or general:n,p,q)"
                ));
            };
            let nums = tail
                .split(',')
                .map(|part| part.trim().parse::<u32>().map_err(|e| (part, e)))
                .collect::<Result<Vec<_>, _>>()
                .map_err(|(part, e)| format!("bad number `{part}` in general spec: {e}"))?;
            let [n, p, q] = nums[..] else {
                return Err(format!("general spec needs n,p,q — got `{tail}`"));
            };
            if p < 1 || u64::from(p) + u64::from(q) > u64::from(n) {
                return Err(format!("general:{n},{p},{q} violates 1 ≤ p and p + q ≤ n"));
            }
            if n > MAX_NAMED_NODES {
                return Err(format!("general:{n},{p},{q} exceeds {MAX_NAMED_NODES} nodes"));
            }
            Ok(general(n, p, q, config))
        }
    }
}

/// §4.4 case 1: one exception, no nested actions.
#[must_use]
pub fn case1(n: u32, config: NetConfig) -> Workload {
    general(n, 1, 0, config)
}

/// §4.4 case 2: one exception, every other object in a nested action.
#[must_use]
pub fn case2(n: u32, config: NetConfig) -> Workload {
    general(n, 1, n - 1, config)
}

/// §4.4 case 3: all `n` objects raise simultaneously.
#[must_use]
pub fn case3(n: u32, config: NetConfig) -> Workload {
    general(n, n, 0, config)
}

/// §3.3 Figure 3: `A1 = {O0..O3} ⊃ A2 = {O2,O3} ⊃ A3 = {O3}` with `O1`
/// raising `e1` in `A1` — the topology whose five open problems the
/// paper's algorithm solves (see `tests/fig3_problems.rs` for the
/// per-problem assertions).
///
/// # Examples
///
/// ```
/// use caex::{analysis, workloads};
///
/// let report = workloads::fig3(Default::default()).run();
/// // P = 1 raiser, Q = 2 nested objects, N = 4.
/// assert_eq!(report.total_messages(), analysis::messages_general(4, 1, 2));
/// ```
#[must_use]
pub fn fig3(config: NetConfig) -> Workload {
    let tree = Arc::new(chain_tree(6));
    let mut reg = ActionRegistry::new();
    let a1 = reg
        .declare(ActionScope::top_level(
            "A1",
            (0..4).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid");
    let a2 = reg
        .declare(ActionScope::nested(
            "A2",
            [NodeId::new(2), NodeId::new(3)],
            Arc::clone(&tree),
            a1,
        ))
        .expect("valid");
    let a3 = reg
        .declare(ActionScope::nested(
            "A3",
            [NodeId::new(3)],
            Arc::clone(&tree),
            a2,
        ))
        .expect("valid");
    let scenario = Scenario::new(Arc::new(reg))
        .with_config(config)
        .enter_all_at(SimTime::ZERO, a1)
        .enter_at(SimTime::from_micros(1), NodeId::new(2), a2)
        .enter_at(SimTime::from_micros(1), NodeId::new(3), a2)
        .enter_at(SimTime::from_micros(2), NodeId::new(3), a3)
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(1),
            Exception::new(ExceptionId::new(1)).with_origin("O1"),
        );
    Workload {
        scenario,
        action: a1,
        participants: (0..4).map(NodeId::new).collect(),
        npq: None,
    }
}

/// Ids used by the worked examples of §4.3.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ExampleIds {
    /// Action A1 (outermost).
    pub a1: ActionId,
    /// Action A2 (Example 2 only; equals `a1` in Example 1).
    pub a2: ActionId,
    /// Action A3 (Example 2 only; equals `a1` in Example 1).
    pub a3: ActionId,
    /// Exception E1.
    pub e1: ExceptionId,
    /// Exception E2.
    pub e2: ExceptionId,
    /// Exception E3.
    pub e3: ExceptionId,
}

/// §4.3 Example 1: objects `O1 O2 O3` in action `A1`; `E1` and `E2`
/// raised concurrently in `O1` and `O2`. `O2` (the bigger name) must
/// resolve.
///
/// # Examples
///
/// ```
/// use caex::workloads;
/// use caex_net::NodeId;
///
/// let (workload, ids) = workloads::example1(Default::default());
/// let report = workload.run();
/// let r = report.resolution_for(ids.a1).unwrap();
/// assert_eq!(r.resolver, NodeId::new(2));
/// ```
#[must_use]
pub fn example1(config: NetConfig) -> (Workload, ExampleIds) {
    let tree = Arc::new(chain_tree(3));
    let mut registry = ActionRegistry::new();
    let a1 = registry
        .declare(ActionScope::top_level(
            "A1",
            (1..=3).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid");
    let (e1, e2, e3) = (
        ExceptionId::new(1),
        ExceptionId::new(2),
        ExceptionId::new(3),
    );
    let scenario = Scenario::new(Arc::new(registry))
        .with_config(config)
        .enter_all_at(SimTime::ZERO, a1)
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(1),
            Exception::new(e1).with_origin("O1"),
        )
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(2),
            Exception::new(e2).with_origin("O2"),
        );
    (
        Workload {
            scenario,
            action: a1,
            participants: (1..=3).map(NodeId::new).collect(),
            npq: Some((3, 2, 0)),
        },
        ExampleIds {
            a1,
            a2: a1,
            a3: a1,
            e1,
            e2,
            e3,
        },
    )
}

/// §4.3 Example 2 / Fig. 4: `O1..O4` in `A1 ⊃ A2 ⊃ A3` with
/// `A2 = {O2,O3,O4}` and `A3 = {O2,O3}`, `O3` belated for `A3`.
/// `E1` raised in `O1` (within `A1`) and `E2` in `O2` (within `A3`)
/// simultaneously; `O2`'s abortion handler for `A2` signals `E3`.
/// The resolution started in `A3` must be eliminated; `O2` resolves
/// `{E1, E3}` in `A1`.
///
/// # Examples
///
/// ```
/// use caex::workloads;
/// use caex_net::NodeId;
///
/// let (workload, ids) = workloads::example2(Default::default());
/// let report = workload.run();
/// let r = report.resolution_for(ids.a1).unwrap();
/// assert_eq!(r.resolver, NodeId::new(2));
/// // E2 was forgotten with the eliminated nested resolution:
/// assert!(r.raised.iter().all(|(_, e)| e.id() != ids.e2));
/// ```
#[must_use]
pub fn example2(config: NetConfig) -> (Workload, ExampleIds) {
    let tree = Arc::new(chain_tree(3));
    let (e1, e2, e3) = (
        ExceptionId::new(1),
        ExceptionId::new(2),
        ExceptionId::new(3),
    );
    let mut registry = ActionRegistry::new();
    let a1 = registry
        .declare(ActionScope::top_level(
            "A1",
            (1..=4).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .expect("valid");
    let a2 = registry
        .declare(ActionScope::nested(
            "A2",
            (2..=4).map(NodeId::new),
            Arc::clone(&tree),
            a1,
        ))
        .expect("valid");
    let a3 = registry
        .declare(ActionScope::nested(
            "A3",
            [NodeId::new(2), NodeId::new(3)],
            Arc::clone(&tree),
            a2,
        ))
        .expect("valid");

    // O2's abortion handler for A2 signals E3 (the paper's premise).
    // Declared as data so the model checker can explore the signal
    // without executing a closure.
    let mut o2_a2 = HandlerTable::recover_all(Arc::clone(&tree));
    o2_a2.on_abort_outcome(
        SimTime::from_micros(5),
        AbortionOutcome::Signal(Exception::new(e3).with_origin("O2 abortion handler of A2")),
    );

    let scenario = Scenario::new(Arc::new(registry))
        .with_config(config)
        .enter_all_at(SimTime::ZERO, a1)
        .enter_at(SimTime::from_micros(1), NodeId::new(2), a2)
        .enter_at(SimTime::from_micros(1), NodeId::new(3), a2)
        .enter_at(SimTime::from_micros(1), NodeId::new(4), a2)
        .enter_at(SimTime::from_micros(2), NodeId::new(2), a3)
        // O3 is belated for A3: its entry is scheduled long after the
        // resolution will have aborted A3, so it never takes effect.
        .enter_at(SimTime::from_millis(10_000), NodeId::new(3), a3)
        .handlers(NodeId::new(2), a2, o2_a2)
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(1),
            Exception::new(e1).with_origin("O1"),
        )
        .raise_at(
            SimTime::from_micros(10),
            NodeId::new(2),
            Exception::new(e2).with_origin("O2"),
        );
    (
        Workload {
            scenario,
            action: a1,
            participants: (1..=4).map(NodeId::new).collect(),
            npq: None, // cross-level: the simulator is the oracle instead
        },
        ExampleIds {
            a1,
            a2,
            a3,
            e1,
            e2,
            e3,
        },
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    #[should_panic(expected = "at least one raiser")]
    fn general_requires_a_raiser() {
        let _ = general(3, 0, 0, NetConfig::default());
    }

    #[test]
    #[should_panic(expected = "disjoint")]
    fn general_requires_disjoint_sets() {
        let _ = general(3, 2, 2, NetConfig::default());
    }

    #[test]
    fn workload_exposes_participants() {
        let w = case1(4, NetConfig::default());
        assert_eq!(w.participants.len(), 4);
    }

    #[test]
    fn by_name_is_the_table_and_refuses_what_is_not_in_it() {
        let name = |spec| by_name(spec, NetConfig::default());
        assert_eq!(name("example1").unwrap().npq, Some((3, 2, 0)));
        assert_eq!(name("example2").unwrap().npq, None);
        let general = name("general: 5, 2,1").unwrap();
        assert_eq!((general.participants.len(), general.npq), (5, Some((5, 2, 1))));
        assert!(name("general:256,1,0").is_ok());
        for (spec, why) in [
            ("example3", "unknown workload"),
            ("general:5,2", "needs n,p,q"),
            ("general:5,two,1", "bad number `two`"),
            ("general:-1,1,0", "bad number `-1`"),
            ("general:3,0,0", "violates"),
            ("general:3,2,2", "violates"),
            ("general:4294967295,4294967295,1", "violates"),
            ("general:4294967295,1,1", "exceeds 256 nodes"),
            ("general:257,1,0", "exceeds 256 nodes"),
        ] {
            let err = name(spec).expect_err(spec);
            assert!(err.contains(why), "{spec}: {err}");
        }
    }
}
