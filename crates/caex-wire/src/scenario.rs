//! Paper workloads re-packaged for wall-clock, multi-process
//! execution.
//!
//! The canonical [`caex::workloads`] scenarios carry virtual step
//! times tuned for the discrete-event simulator, where message
//! latency is always larger than the inter-step gaps — so concurrent
//! raises really are concurrent. Over real sockets the relation can
//! invert: barrier-exit skew between processes can exceed localhost
//! propagation delay, and a microsecond-staggered raise script would
//! race against incoming Exception messages, breaking the §4.4 count.
//!
//! [`WireScenario::build`] therefore *clamps every step to time zero*.
//! [`caex::drive::drive_node`] fires all due local steps (in script
//! order — the per-node sequence number breaks ties) before its first
//! receive, so each process plays out its entire local script in one
//! burst before reacting to the network. That structurally reproduces
//! the simulator's concurrency assumption regardless of skew, and the
//! real socket traffic can be held to `(N−1)(2P+3Q+1)`.
//!
//! The re-timing is all this module does to a workload: what runs is
//! the scenario's own [`caex::Script`] ([`caex::Scenario::for_port_host`]),
//! and each process configures its participant from it the way every
//! host does ([`caex::Script::participant`]).
//!
//! Steps scheduled one virtual second or later (Example 2's belated
//! re-entry probe, scheduled long after resolution) model "afterwards"
//! and are dropped rather than clamped: folding them into the initial
//! burst would change the protocol run.

use caex::workloads;
use caex::{analysis, Script};
use caex_action::ActionId;
use caex_net::{NetConfig, NodeId, SimTime};
use caex_tree::ExceptionId;

/// Steps at or past this virtual time are "long after resolution" and
/// are dropped from wire scripts instead of being clamped into the
/// initial burst.
fn belated() -> SimTime {
    SimTime::from_micros(1_000_000)
}

/// What the sim engine says a scenario must do — the cross-engine
/// oracle for the wire run.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct SimBaseline {
    /// Total protocol messages the simulator sent.
    pub total_messages: u64,
    /// The exception every handler agreed on, if resolution ran.
    pub agreed: Option<ExceptionId>,
    /// The resolver the resolving action elected.
    pub resolver: Option<NodeId>,
    /// The raised set it resolved, one id per raiser, ascending.
    pub raised: Vec<ExceptionId>,
}

/// A workload compiled for the socket mesh: the zero-clamped script
/// and the applicable §4.4/§4.5 law.
pub struct WireScenario {
    /// Spec string this was built from (`example1`, `general:5,2,1`, …).
    pub name: String,
    /// What runs, every step clamped to [`SimTime::ZERO`] in script
    /// order; each process takes its own participant and steps from it.
    pub script: Script,
    /// The action resolution is expected to run in.
    pub action: ActionId,
    /// Declared participants of that action.
    pub participants: Vec<NodeId>,
    /// Mesh size (max participant index + 1 across the registry).
    pub num_nodes: u32,
    /// Closed-form §4.4 message count, when the workload has one.
    pub expected_messages: Option<u64>,
    /// `(p, q)` for the §4.5 multicast law, when the workload fits the
    /// general family (Example 2's cross-level scenario does not).
    pub pq: Option<(u32, u32)>,
}

impl std::fmt::Debug for WireScenario {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("WireScenario")
            .field("name", &self.name)
            .field("num_nodes", &self.num_nodes)
            .field("steps", &self.script.steps.len())
            .field("expected_messages", &self.expected_messages)
            .finish()
    }
}

impl WireScenario {
    /// Builds a wire scenario from a spec string: `example1`,
    /// `example2`, or `general:n,p,q`.
    ///
    /// # Errors
    ///
    /// Rejects unknown specs and malformed/invalid `general`
    /// parameters.
    pub fn build(spec: &str) -> Result<WireScenario, String> {
        let workload = workloads::by_name(spec, NetConfig::default())?;
        let npq = workload.npq;
        let mut script = workload.scenario.for_port_host();
        script.steps.retain(|(t, _, _)| *t < belated());
        for (time, _, _) in &mut script.steps {
            *time = SimTime::ZERO;
        }
        Ok(WireScenario {
            name: spec.to_string(),
            num_nodes: script.num_nodes(),
            script,
            action: workload.action,
            participants: workload.participants,
            expected_messages: npq
                .map(|(n, p, q)| analysis::messages_general(n.into(), p.into(), q.into())),
            pq: npq.map(|(_, p, q)| (p, q)),
        })
    }

    /// Runs the *simulator* on the same spec and returns its verdict —
    /// the oracle the multi-process run is compared against.
    ///
    /// # Errors
    ///
    /// Propagates [`WireScenario::build`]'s spec errors.
    pub fn sim_baseline(spec: &str) -> Result<SimBaseline, String> {
        let workload = workloads::by_name(spec, NetConfig::default())?;
        let action = workload.action;
        let report = workload.run();
        let resolution = report.resolution_for(action);
        let mut raised: Vec<ExceptionId> = resolution
            .map(|r| r.raised.iter().map(|(_, e)| e.id()).collect())
            .unwrap_or_default();
        raised.sort_unstable();
        Ok(SimBaseline {
            total_messages: report.total_messages(),
            agreed: report.agreed_exception(action).map(|e| e.id()),
            resolver: resolution.map(|r| r.resolver),
            raised,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn example1_compiles_with_the_closed_form_count() {
        let sc = WireScenario::build("example1").unwrap();
        // Example 1 names its objects O1..O3, so the mesh spans node
        // ids 0..=3 with node 0 a silent bystander.
        assert_eq!(sc.num_nodes, 4);
        assert_eq!(sc.expected_messages, Some(10));
        assert_eq!(sc.pq, Some((2, 0)));
        assert!(sc.script.steps.iter().all(|(t, _, _)| *t == SimTime::ZERO));
        // Each of the three objects has at least an enter step.
        for i in 0..3 {
            assert!(!sc.script.steps_for(sc.participants[i]).is_empty());
        }
    }

    #[test]
    fn example2_drops_the_belated_entry_and_has_no_closed_form() {
        let sim = workloads::example2(NetConfig::default()).0.scenario;
        let raw_steps = sim.scripted().count();
        let sc = WireScenario::build("example2").unwrap();
        assert_eq!(sc.expected_messages, None);
        assert_eq!(sc.pq, None);
        assert!(
            sc.script.steps.len() < raw_steps,
            "the belated O3 re-entry must be dropped ({} vs {raw_steps})",
            sc.script.steps.len()
        );
    }

    #[test]
    fn general_specs_parse_and_validate() {
        let sc = WireScenario::build("general:5,2,1").unwrap();
        assert_eq!(sc.num_nodes, 5);
        assert_eq!(sc.expected_messages, Some(analysis::messages_general(5, 2, 1)));
        assert!(WireScenario::build("general:3,0,0").is_err());
        assert!(WireScenario::build("general:3,2,2").is_err());
        assert!(WireScenario::build("general:nope").is_err());
        // `p + q` must not wrap, and the mesh is one process per node.
        assert!(WireScenario::build("general:4294967295,4294967295,1").is_err());
        assert!(WireScenario::build("general:4294967295,1,1").is_err());
        assert!(WireScenario::build("bogus").is_err());
    }

    #[test]
    fn sim_baseline_matches_the_law_for_the_general_family() {
        let base = WireScenario::sim_baseline("general:4,2,1").unwrap();
        assert_eq!(base.total_messages, analysis::messages_general(4, 2, 1));
        assert_eq!(base.agreed, Some(ExceptionId::new(1)));
        assert_eq!(base.raised.len(), 2);
    }

    #[test]
    fn example2_baseline_names_the_paper_resolver_and_raised_set() {
        let base = WireScenario::sim_baseline("example2").unwrap();
        assert_eq!(base.resolver, Some(NodeId::new(2)));
        assert_eq!(base.raised, [ExceptionId::new(1), ExceptionId::new(3)]);
    }
}
