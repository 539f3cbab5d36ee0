//! Golden equivalence of the fleet engine at `K = 1`: a one-instance,
//! one-shard, one-slot [`FleetEngine`] must reproduce exactly what
//! [`Scenario::run`] produces for the same action — same message
//! counts, same resolution pick, same observability stream. Both are
//! front-ends of one simulator host; this pins that what each adds
//! around the host's step (script set-up against admission, `RunReport`
//! against `ActionOutcome`) leaves the run itself alone.

use caex::shard::{ActionInstance, FleetConfig, FleetEngine};
use caex::{analysis, workloads, NestedStrategy, Note, Scenario};
use caex_action::{ActionRegistry, ActionScope};
use caex_net::{LatencyModel, NetConfig, NodeId, SimTime};
use caex_obs::{ObsEvent, Observer};
use caex_tree::{chain_tree, Exception, ExceptionId};
use proptest::prelude::*;
use std::sync::Arc;

/// Collects the raw event stream.
#[derive(Default)]
struct Recorder {
    events: Vec<ObsEvent>,
}

impl Observer for Recorder {
    fn on_event(&mut self, event: &ObsEvent) {
        self.events.push(event.clone());
    }
}

/// Runs one scenario both ways and returns
/// `(scenario events, fleet events, fleet report, scenario report)`.
fn both_ways(
    build: impl Fn() -> caex::Scenario,
) -> (Vec<ObsEvent>, Vec<ObsEvent>, caex::shard::FleetReport, caex::RunReport) {
    let mut direct_obs = Recorder::default();
    let direct = build().run_observed(&mut direct_obs);

    let mut fleet_obs = Recorder::default();
    let instance = ActionInstance::from_scenario(build(), SimTime::ZERO);
    let config = FleetConfig {
        shards: 1,
        capacity: 1,
        law: Some(analysis::messages_general),
        ..Default::default()
    };
    let fleet = FleetEngine::new(config).run_observed(vec![instance], &mut fleet_obs);
    (direct_obs.events, fleet_obs.events, fleet, direct)
}

fn assert_golden_equivalence(
    direct_events: &[ObsEvent],
    fleet_events: &[ObsEvent],
    fleet: &caex::shard::FleetReport,
    direct: &caex::RunReport,
) {
    // Message accounting is identical, kind by kind.
    assert_eq!(fleet.stats.sent_total(), direct.stats.sent_total());
    for kind in ["exception", "ack", "have_nested", "nested_completed", "commit"] {
        assert_eq!(
            fleet.stats.sent_of_kind(kind),
            direct.stats.sent_of_kind(kind),
            "kind {kind}"
        );
    }
    // The resolution pick matches.
    let outcome = &fleet.outcomes[0];
    match direct.resolution_for(outcome.key) {
        Some(r) => {
            assert_eq!(outcome.resolver, Some(r.resolver));
            assert_eq!(
                outcome.resolved.as_ref().map(|e| e.id()),
                Some(r.resolved.id())
            );
            assert_eq!(outcome.committed, Some(r.at));
        }
        None => assert_eq!(outcome.resolver, None),
    }
    // The observability stream is bit-identical (same spans, same
    // order, same timestamps), which subsumes span balance.
    assert_eq!(direct_events, fleet_events);
}

#[test]
fn example1_through_the_fleet_matches_the_scenario_engine() {
    let (de, fe, fleet, direct) =
        both_ways(|| workloads::example1(NetConfig::default()).0.scenario);
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    assert_eq!(fleet.outcomes[0].resolver, Some(NodeId::new(2)));
    assert_eq!(fleet.law_all_hold(), Some(true));
}

#[test]
fn example2_through_the_fleet_matches_the_scenario_engine() {
    let (de, fe, fleet, direct) =
        both_ways(|| workloads::example2(NetConfig::default()).0.scenario);
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    // O2 resolves in A1 after the nested resolution is eliminated
    // (§4.3 Example 2's narration).
    assert_eq!(fleet.outcomes[0].resolver, Some(NodeId::new(2)));
}

/// Fig. 1a: O0 raises in A1 = {O0, O1} while O1 is inside the nested
/// A2 = {O1}, under the `Wait` strategy; A2 has `remaining` left to run
/// (`None`: it never completes).
fn fig1a_wait(remaining: Option<SimTime>) -> Scenario {
    let tree = Arc::new(chain_tree(2));
    let mut reg = ActionRegistry::new();
    let nodes = [NodeId::new(0), NodeId::new(1)];
    let a1 = reg
        .declare(ActionScope::top_level("A1", nodes, Arc::clone(&tree)))
        .unwrap();
    let a2 = reg
        .declare(ActionScope::nested("A2", [nodes[1]], tree, a1))
        .unwrap();
    Scenario::new(Arc::new(reg))
        .with_strategy(NestedStrategy::Wait)
        .enter_all_at(SimTime::ZERO, a1)
        .enter_at(SimTime::from_micros(1), nodes[1], a2)
        .nested_remaining(nodes[1], a2, remaining)
        .raise_at(
            SimTime::from_micros(10),
            nodes[0],
            Exception::new(ExceptionId::new(1)),
        )
}

fn waits_forever(report: &caex::RunReport) -> Vec<bool> {
    report
        .notes
        .iter()
        .filter_map(|n| match n {
            Note::WaitingForNested { forever, .. } => Some(*forever),
            _ => None,
        })
        .collect()
}

#[test]
fn declared_nested_run_time_reaches_the_fleet() {
    let remaining = SimTime::from_millis(50);
    let (de, fe, fleet, direct) = both_ways(|| fig1a_wait(Some(remaining)));
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    assert_eq!(waits_forever(&direct), [false]);
    assert!(fleet.outcomes[0].committed.expect("resolves") >= remaining);
    assert!(fleet.deadlocked.is_empty());
}

#[test]
fn nested_action_that_never_completes_deadlocks_the_fleet_too() {
    let (de, fe, fleet, direct) = both_ways(|| fig1a_wait(None));
    assert_golden_equivalence(&de, &fe, &fleet, &direct);
    assert_eq!(waits_forever(&direct), [true]);
    assert_eq!(fleet.outcomes[0].committed, None);
    assert_eq!(fleet.deadlocked, direct.deadlocked);
    assert!(fleet.deadlocked.contains(&NodeId::new(0)));
}

#[test]
#[should_panic(expected = "cannot carry the exit-line acceptance test of A0")]
fn exit_line_acceptance_tests_are_refused_not_dropped() {
    let (workload, ids) = workloads::example1(NetConfig::default());
    let scenario = workload.scenario.with_exit_acceptance(ids.a1, || None);
    let _ = ActionInstance::from_scenario(scenario, SimTime::ZERO);
}

/// A 64-instance `general_at(4, 2, 1)` fleet, arrivals 10 µs apart,
/// through the default one-shard, capacity-8 engine with a metrics
/// registry attached.
fn fleet64() -> (caex::shard::FleetReport, caex_obs::MetricsRegistry) {
    let instances = general_fleet(4, 2, 1, 64, 10);
    let config = FleetConfig {
        law: Some(analysis::messages_general),
        ..Default::default()
    };
    let mut metrics = caex_obs::MetricsRegistry::new().with_law(analysis::messages_general);
    let report = FleetEngine::new(config).run_observed(instances, &mut metrics);
    (report, metrics)
}

/// The engine's bookkeeping maps are unordered inside; everything a
/// caller can read is the same on every run and comes out ordered, and
/// the rendered text is pinned to what the ordered maps used to print.
#[test]
fn fleet_of_64_is_deterministic_and_prints_as_pinned() {
    let (first, first_metrics) = fleet64();
    let (second, second_metrics) = fleet64();
    assert_eq!(first.stats, second.stats);
    assert_eq!(
        format!("{:?}", first.outcomes),
        format!("{:?}", second.outcomes)
    );
    assert_eq!(first_metrics.prometheus(), second_metrics.prometheus());

    let seen: Vec<u32> = first.stats.actions_seen().map(|(a, _)| a).collect();
    // Only the top-level actions (even ids) carry protocol messages.
    assert_eq!(seen, (0..64).map(|i| i * 2).collect::<Vec<u32>>());
    assert_eq!(first.committed_count(), 64);
    assert_eq!(first.law_all_hold(), Some(true));

    let text = format!(
        "== stats ==\n{}== prometheus ==\n{}== snapshot ==\n{}\n",
        first.stats,
        first_metrics.prometheus(),
        first_metrics.snapshot().to_json()
    );
    assert_eq!(text, include_str!("fixtures/fleet64.txt"));
}

/// The fleet's own verdict, from the counts the shard keeps: every
/// instance of the constant-latency fleet is one `(4, 2, 1)` round of
/// 24 messages, and says so.
#[test]
fn every_outcome_of_fleet64_carries_the_law_verdict() {
    let (report, _) = fleet64();
    for o in &report.outcomes {
        assert_eq!(o.law_predicted, Some(24), "instance {}", o.instance);
        assert_eq!(o.law_holds, Some(true), "instance {}", o.instance);
    }
}

/// `count` instances of `general_at(n, p, q)` relocated onto disjoint
/// node and action ranges, arriving `gap_us` apart.
fn general_fleet(n: u32, p: u32, q: u32, count: u32, gap_us: u64) -> Vec<ActionInstance> {
    (0..count)
        .map(|i| {
            let w = workloads::general_at(n, p, q, i * n, i * (q + 1), NetConfig::default());
            ActionInstance::from_scenario(w.scenario, SimTime::from_micros(u64::from(i) * gap_us))
        })
        .collect()
}

/// The jittered fleet: 200 `(6, 3, 2)` instances 100 µs apart under a
/// `Uniform {10 µs, 400 µs}` latency, seed 7.
fn jittered_fleet() -> (Vec<ActionInstance>, FleetConfig) {
    let latency = LatencyModel::Uniform {
        min: SimTime::from_micros(10),
        max: SimTime::from_micros(400),
    };
    let config = FleetConfig {
        net: NetConfig::default().with_latency(latency).with_seed(7),
        law: Some(analysis::messages_general),
        ..Default::default()
    };
    (general_fleet(6, 3, 2, 200, 100), config)
}

/// The fleet's verdicts against the reference: a `MetricsRegistry`
/// with the law attached, on the same run's stream, its finalized
/// rounds folded per instance (predictions summed, verdicts
/// conjoined) by each instance's action range.
#[test]
fn fleet_verdicts_equal_the_metrics_registrys() {
    let with_law = FleetConfig {
        law: Some(analysis::messages_general),
        ..Default::default()
    };
    let one = |s: Scenario| vec![ActionInstance::from_scenario(s, SimTime::ZERO)];
    let example1 = one(workloads::example1(NetConfig::default()).0.scenario);
    let example2 = one(workloads::example2(NetConfig::default()).0.scenario);
    // (name, instances, config, actions per instance)
    let fleets: Vec<(&str, Vec<ActionInstance>, FleetConfig, u32)> = vec![
        ("example1", example1, with_law.clone(), u32::MAX),
        ("example2", example2, with_law.clone(), u32::MAX),
        ("(4,2,1)x64", general_fleet(4, 2, 1, 64, 10), with_law.clone(), 2),
        ("(16,8,4)x20", general_fleet(16, 8, 4, 20, 50), with_law, 5),
        {
            let (instances, config) = jittered_fleet();
            ("jittered (6,3,2)x200", instances, config, 3)
        },
    ];
    for (name, instances, config, actions_per_instance) in fleets {
        let count = instances.len();
        let mut metrics = caex_obs::MetricsRegistry::new().with_law(analysis::messages_general);
        let report = FleetEngine::new(config).run_observed(instances, &mut metrics);
        let mut expected: Vec<(Option<u64>, Option<bool>)> = vec![(None, None); count];
        for r in metrics.resolutions() {
            let instance = (r.action.index() / actions_per_instance) as usize;
            let (predicted, holds) = &mut expected[instance];
            if let Some(p) = r.predicted {
                *predicted.get_or_insert(0) += p;
            }
            if let Some(h) = r.law_holds {
                *holds = Some(holds.unwrap_or(true) && h);
            }
        }
        let got: Vec<_> = report.outcomes.iter().map(|o| (o.law_predicted, o.law_holds)).collect();
        assert_eq!(got, expected, "{name}");
        // Example 2's round lies outside the closed form's domain.
        let applies = name != "example2";
        assert!(got.iter().all(|v| v.1.is_some() == applies), "{name}: {got:?}");
        if name.starts_with("jittered") {
            assert!(got.iter().any(|v| v.1 == Some(false)), "{name}: a straggler-ACK elision");
        } else {
            assert_eq!(report.law_all_hold(), applies.then_some(true), "{name}");
        }
    }
}

/// An un-instrumented run (`()`, which does not observe, so the
/// bridge only applies each event) reports exactly what a recorded run
/// reports, on the scenario engine and on the fleet, the jittered fleet
/// included.
#[test]
fn unobserved_runs_report_what_observed_runs_report() {
    let scenarios: Vec<fn() -> Scenario> = vec![
        || workloads::example1(NetConfig::default()).0.scenario,
        || workloads::example2(NetConfig::default()).0.scenario,
        || workloads::general(6, 3, 2, NetConfig::default()).scenario,
    ];
    for build in scenarios {
        let mut recorder = Recorder::default();
        let observed = build().run_observed(&mut recorder);
        assert!(!recorder.events.is_empty());
        assert_eq!(format!("{:?}", build().run()), format!("{observed:?}"));
    }
    let fleets: Vec<fn() -> (Vec<ActionInstance>, FleetConfig)> = vec![
        || {
            let config = FleetConfig { law: Some(analysis::messages_general), ..Default::default() };
            (general_fleet(4, 2, 1, 64, 10), config)
        },
        jittered_fleet,
    ];
    for build in fleets {
        let (instances, config) = build();
        let engine = FleetEngine::new(config);
        let mut recorder = Recorder::default();
        let observed = engine.run_observed(instances, &mut recorder);
        assert!(!recorder.events.is_empty());
        let plain = engine.run(build().0);
        assert_eq!(format!("{plain:?}"), format!("{observed:?}"));
    }
}

/// FNV-1a over the bytes of `text`, continuing from `hash`.
fn fnv1a(hash: u64, text: &str) -> u64 {
    text.bytes()
        .fold(hash, |h, b| (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3))
}

/// The jittered fleet's run, pinned: the digest of its obs stream, its
/// outcomes (the law fields aside) and its `NetStats`. Some instance
/// still receives a delivery after it finished, so an instance is
/// retired only once the net holds nothing more for it.
#[test]
fn the_jittered_fleet_runs_as_pinned() {
    let (instances, config) = jittered_fleet();
    let mut recorder = Recorder::default();
    let report = FleetEngine::new(config).run_observed(instances, &mut recorder);
    let digest = recorder
        .events
        .iter()
        .fold(0xcbf2_9ce4_8422_2325, |h, e| fnv1a(h, &format!("{e:?}\n")));
    let mut text = format!("events {} digest {digest:016x}\n", recorder.events.len());
    for o in &report.outcomes {
        text.push_str(&format!(
            "{} s{} {} arr {} adm {} com {:?} fin {:?} res {:?} {:?} msgs {} dl {:?}\n",
            o.instance,
            o.shard,
            o.key,
            o.arrival,
            o.admitted,
            o.committed,
            o.finished,
            o.resolver,
            o.resolved.as_ref().map(caex_tree::Exception::id),
            o.messages,
            o.deadline
        ));
    }
    text.push_str(&format!("{}", report.stats));
    assert_eq!(text, include_str!("fixtures/jittered_fleet.txt"));

    let late = report.outcomes.iter().any(|o| {
        let finished = o.finished.expect("every instance finishes");
        let nodes = (o.instance as u32 * 6)..(o.instance as u32 * 6 + 6);
        recorder.events.iter().any(|e| {
            e.at > finished
                && nodes.contains(&e.object.index())
                && matches!(e.kind, caex_obs::ObsKind::MessageReceived { .. })
        })
    });
    assert!(late, "some instance receives a delivery after it finished");
}

/// One shard hands its `NetStats` over as it is and further shards
/// fold into it: the merged counters do not depend on the shard count.
#[test]
fn merged_stats_do_not_depend_on_the_shard_count() {
    let run = |shards| {
        let instances = general_fleet(4, 2, 1, 64, 10);
        let config = FleetConfig {
            shards,
            ..Default::default()
        };
        let stats = FleetEngine::new(config).run(instances).stats;
        let kinds: Vec<(String, u64)> = stats
            .sent_by_kind()
            .map(|(k, v)| (k.to_owned(), v))
            .collect();
        let loads: Vec<u64> = (0..256u32)
            .map(|n| stats.node_in_load(NodeId::new(n)))
            .collect();
        (
            stats.sent_total(),
            stats.delivered_total(),
            kinds,
            stats.actions_seen().collect::<Vec<_>>(),
            loads,
        )
    };
    let one = run(1);
    assert_eq!(one.0, 64 * 24);
    assert_eq!(one, run(3));
}

#[test]
#[should_panic(expected = "node O5 assigned to two instances in shard 0")]
fn instances_sharing_a_node_are_rejected() {
    // Nodes 0..6 and 5..11 overlap in O5.
    let instances = [0u32, 5]
        .into_iter()
        .enumerate()
        .map(|(i, node_base)| {
            let w = workloads::general_at(6, 1, 0, node_base, i as u32, NetConfig::default());
            ActionInstance::from_scenario(w.scenario, SimTime::ZERO)
        })
        .collect();
    let _ = FleetEngine::new(FleetConfig::default()).run(instances);
}

/// Valid §4.4 shapes: `N` participants, `1 <= P`, `P + Q <= N`, plus a
/// relocation offset pair for the fleet instance.
fn arb_shape() -> impl Strategy<Value = (u32, u32, u32, u32, u32)> {
    (2u32..7)
        .prop_flat_map(|n| (Just(n), 1..=n))
        .prop_flat_map(|(n, p)| (Just(n), Just(p), 0..=(n - p)))
        .prop_flat_map(|(n, p, q)| (Just(n), Just(p), Just(q), 0u32..40, 0u32..40))
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// A relocated general workload through the degenerate fleet
    /// reproduces the direct engine's outcomes: the §4.4 law count,
    /// the resolver (shifted by the node base), and the obs stream
    /// (shifted spans aside, verified via per-span event counts).
    #[test]
    fn relocated_k1_fleet_reproduces_the_general_workload(
        (n, p, q, node_base, action_base) in arb_shape()
    ) {
        let direct = workloads::general(n, p, q, NetConfig::default()).run();

        let w = workloads::general_at(n, p, q, node_base, action_base, NetConfig::default());
        let instance = ActionInstance::from_scenario(w.scenario, SimTime::ZERO);
        let config = FleetConfig {
            shards: 1,
            capacity: 1,
            law: Some(analysis::messages_general),
            ..Default::default()
        };
        let fleet = FleetEngine::new(config).run(vec![instance]);

        let outcome = &fleet.outcomes[0];
        // Message counts: fleet == direct == the closed-form law.
        prop_assert_eq!(fleet.stats.sent_total(), direct.stats.sent_total());
        prop_assert_eq!(
            outcome.messages,
            analysis::messages_general(u64::from(n), u64::from(p), u64::from(q))
        );
        prop_assert_eq!(fleet.law_all_hold(), Some(true), "§4.4 law after relocation");
        // Resolution pick: same resolver modulo the node relocation,
        // same exception, same commit time.
        let r = direct
            .resolution_for(direct.resolutions[0].action)
            .expect("general workload resolves");
        prop_assert_eq!(
            outcome.resolver,
            Some(NodeId::new(r.resolver.index() + node_base))
        );
        prop_assert_eq!(
            outcome.resolved.as_ref().map(caex_tree::Exception::id),
            Some(r.resolved.id())
        );
        prop_assert_eq!(outcome.committed, Some(r.at));
        prop_assert_eq!(outcome.finished, Some(direct.finished_at));
        prop_assert!(fleet.deadlocked.is_empty());
    }
}
