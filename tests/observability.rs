//! Integration tests for the `caex-obs` layer over the real engines:
//! §4.4 law checks through `MetricsRegistry`, golden span/metric
//! snapshots for the paper's Examples 1 and 2, Chrome-trace round
//! trips, watchdog cleanliness over every built-in workload, and the
//! observed variants of the thread/central/cr engines.

use caex::{analysis, workloads};
use caex_net::{NetConfig, SimTime};
use caex_obs::exporters::{check_balanced, track_ids};
use caex_obs::{
    ChromeTraceExporter, JsonlExporter, MetricsRegistry, MetricsSnapshot, ObsKind, Recorder,
    Tee, Watchdog,
};

/// Runs a workload with the full observer stack attached.
fn observe(
    workload: workloads::Workload,
) -> (caex::RunReport, MetricsRegistry, Watchdog, Recorder) {
    let mut metrics = MetricsRegistry::new().with_law(analysis::messages_general);
    let mut watchdog = Watchdog::new();
    let mut recorder = Recorder::new();
    let report = {
        let mut tee = Tee::new()
            .with(&mut metrics)
            .with(&mut watchdog)
            .with(&mut recorder);
        workload.scenario.run_observed(&mut tee)
    };
    (report, metrics, watchdog, recorder)
}

/// §4.4 case 1 (single raise, no nested): the registry's per-round
/// message count must equal the closed form `3(N−1)`.
#[test]
fn case1_round_matches_law() {
    for n in [2, 4, 8] {
        let (report, metrics, watchdog, _) = observe(workloads::case1(n, NetConfig::default()));
        assert!(report.is_clean());
        assert!(watchdog.is_clean(), "{:?}", watchdog.violations());
        assert_eq!(metrics.resolutions().len(), 1);
        let r = &metrics.resolutions()[0];
        assert_eq!(r.n, u64::from(n));
        assert_eq!((r.p, r.q), (1, 0));
        assert_eq!(r.messages, analysis::messages_case1(u64::from(n)));
        assert_eq!(r.predicted, Some(r.messages));
        assert_eq!(r.law_holds, Some(true));
        assert!(metrics.law_holds());
    }
}

/// §4.4 case 2: one raiser, every other object inside a nested action
/// — `3N(N−1)`.
#[test]
fn case2_round_matches_law() {
    let (_, metrics, watchdog, _) = observe(workloads::case2(5, NetConfig::default()));
    assert!(watchdog.is_clean(), "{:?}", watchdog.violations());
    let r = &metrics.resolutions()[0];
    assert_eq!((r.n, r.p, r.q), (5, 1, 4));
    assert_eq!(r.messages, analysis::messages_case2(5));
    assert_eq!(r.law_holds, Some(true));
}

/// §4.4 case 3: all `N` objects raise simultaneously — `(N−1)(2N+1)`.
#[test]
fn case3_round_matches_law() {
    let (_, metrics, watchdog, _) = observe(workloads::case3(6, NetConfig::default()));
    assert!(watchdog.is_clean(), "{:?}", watchdog.violations());
    let r = &metrics.resolutions()[0];
    assert_eq!((r.n, r.p, r.q), (6, 6, 0));
    assert_eq!(r.messages, analysis::messages_case3(6));
    assert_eq!(r.law_holds, Some(true));
}

/// The general `(N, P, Q)` workload across a grid: the live per-round
/// count always equals `(N−1)(2P+3Q+1)`.
#[test]
fn general_rounds_match_law() {
    for (n, p, q) in [(3, 1, 1), (5, 2, 1), (6, 3, 2), (8, 2, 5)] {
        let (_, metrics, watchdog, _) =
            observe(workloads::general(n, p, q, NetConfig::default()));
        assert!(watchdog.is_clean(), "({n},{p},{q}): {:?}", watchdog.violations());
        assert_eq!(metrics.resolutions().len(), 1, "({n},{p},{q})");
        let r = &metrics.resolutions()[0];
        assert_eq!(
            (r.n, r.p, r.q),
            (u64::from(n), u64::from(p), u64::from(q)),
            "({n},{p},{q})"
        );
        assert_eq!(
            r.messages,
            analysis::messages_general(u64::from(n), u64::from(p), u64::from(q)),
            "({n},{p},{q})"
        );
        assert_eq!(r.law_holds, Some(true));
    }
}

/// Every built-in workload family runs watchdog-clean.
#[test]
fn watchdog_is_clean_over_every_builtin() {
    let builds: Vec<(&str, workloads::Workload)> = vec![
        ("general(6,3,2)", workloads::general(6, 3, 2, NetConfig::default())),
        ("case1(4)", workloads::case1(4, NetConfig::default())),
        ("case2(4)", workloads::case2(4, NetConfig::default())),
        ("case3(8)", workloads::case3(8, NetConfig::default())),
        ("fig3", workloads::fig3(NetConfig::default())),
        ("example1", workloads::example1(NetConfig::default()).0),
        ("example2", workloads::example2(NetConfig::default()).0),
    ];
    for (name, workload) in builds {
        let (_, _, watchdog, _) = observe(workload);
        assert!(watchdog.is_clean(), "{name}: {:?}", watchdog.violations());
    }
}

/// Formats one event as a compact golden line.
fn golden_line(e: &caex_obs::ObsEvent) -> String {
    format!("{} {} {} {}", e.at.as_micros(), e.object, e.span, e.kind.label())
}

/// Golden span snapshot of Example 1 (§4.3): the full structural event
/// stream (message sends and state transitions elided for brevity; the
/// law tests above count those).
#[test]
fn example1_golden_span_snapshot() {
    let (_, _, _, recorder) = observe(workloads::example1(NetConfig::default()).0);
    let got: Vec<String> = recorder
        .events
        .iter()
        .filter(|e| {
            !matches!(
                e.kind,
                ObsKind::MessageSent { .. }
                    | ObsKind::MessageReceived { .. }
                    | ObsKind::StateTransition { .. }
            )
        })
        .map(golden_line)
        .collect();
    let want = [
        "0 O1 A0#r0 action_enter",
        "0 O2 A0#r0 action_enter",
        "0 O3 A0#r0 action_enter",
        "10 O1 A0#r1 resolution_start",
        "10 O1 A0#r1 raise",
        "10 O2 A0#r1 raise",
        "210 O2 A0#r1 resolver_elected",
        "210 O2 A0#r1 resolution_commit",
        "210 O2 A0#r1 handler_start",
        "210 O2 A0#r1 handler_end",
        "210 O2 A0#r1 action_leave",
        "310 O1 A0#r1 handler_start",
        "310 O3 A0#r1 handler_start",
        "310 O1 A0#r1 handler_end",
        "310 O1 A0#r1 action_leave",
        "310 O3 A0#r1 handler_end",
        "310 O3 A0#r1 action_leave",
    ];
    assert_eq!(got, want);
}

/// Golden span snapshot of Example 2's abortion phase: the nested
/// actions unwind innermost-first, every abortion ends before the
/// commit, and O2's nested raise opens its own (never-committed) round
/// `A2#r1` — distinct from the outer `A0#r1` correlation id.
#[test]
fn example2_abortion_spans_are_correlated() {
    let (_, _, _, recorder) = observe(workloads::example2(NetConfig::default()).0);
    let lines: Vec<String> = recorder.events.iter().map(golden_line).collect();
    // O2 is caught inside A2 (nested in A1): its raise correlates to A2.
    assert!(lines.contains(&"10 O2 A2#r1 resolution_start".to_owned()));
    assert!(lines.contains(&"10 O2 A2#r1 raise".to_owned()));
    // The chain unwinds innermost-first: A2 leaves before A1 on O2.
    let pos = |l: &str| {
        lines
            .iter()
            .position(|x| x == l)
            .unwrap_or_else(|| panic!("missing {l}"))
    };
    assert!(pos("110 O2 A2#r1 action_leave") < pos("110 O2 A1#r0 action_leave"));
    assert!(pos("110 O2 A1#r0 action_leave") < pos("110 O2 A0#r1 abortion_start"));
    // O2's abortion handler signals E3: abortion end, then the
    // synthesized raise, all before the commit.
    assert!(pos("115 O2 A0#r1 abortion_end") < pos("115 O2 A0#r1 raise"));
    assert!(pos("115 O2 A0#r1 raise") < pos("315 O2 A0#r1 resolution_commit"));
    // Exactly one abortion per participant of A1, all ended.
    let count = |label: &str| {
        recorder
            .events
            .iter()
            .filter(|e| e.kind.label() == label)
            .count()
    };
    assert_eq!(count("abortion_start"), 3);
    assert_eq!(count("abortion_end"), 3);
}

/// Golden metrics snapshot of Example 2, pinned as the exact JSON the
/// snapshot serializes to, and round-tripped through the hand-rolled
/// parser.
#[test]
fn example2_golden_metrics_snapshot_roundtrips() {
    let (_, metrics, _, _) = observe(workloads::example2(NetConfig::default()).0);
    let snapshot = metrics.snapshot();
    let json = snapshot.to_json();
    let golden = concat!(
        r#"{"events_total":{"abortion_end":3,"abortion_start":3,"action_enter":8,"#,
        r#""action_leave":8,"handler_end":4,"handler_start":4,"message_received":37,"#,
        r#""message_sent":37,"#,
        r#""raise":3,"resolution_commit":1,"resolution_start":2,"resolver_elected":1,"#,
        r#""state_transition":11},"messages_total":{"ack":12,"commit":3,"exception":4,"#,
        r#""have_nested":9,"nested_completed":9},"state_dwell_us":{"N":39998680,"R":200,"#,
        r#""S":615,"X":505},"resolutions":[{"action":0,"round":1,"latency_us":305,"#,
        r#""wall_latency_us":null,"messages":36,"by_kind":{"ack":12,"commit":3,"#,
        r#""exception":3,"have_nested":9,"nested_completed":9},"n":4,"p":2,"q":3,"#,
        r#""predicted":null,"law_holds":null,"resolved":"e1"}],"resolution_latency":"#,
        r#"{"bounds":[1,10,100,1000,10000,100000,1000000,10000000],"#,
        r#""counts":[0,0,0,1,0,0,0,0,0],"sum":305,"count":1,"#,
        r#""p50":305,"p99":305,"p999":305},"resolution_latency_wall":"#,
        r#"{"bounds":[1,10,100,1000,10000,100000,1000000,10000000],"#,
        r#""counts":[0,0,0,0,0,0,0,0,0],"sum":0,"count":0,"#,
        r#""p50":0,"p99":0,"p999":0},"handler_durations":"#,
        r#"{"bounds":[1,10,100,1000,10000,100000,1000000,10000000],"#,
        r#""counts":[4,0,0,0,0,0,0,0,0],"sum":0,"count":4,"#,
        r#""p50":0,"p99":0,"p999":0}}"#,
    );
    assert_eq!(json, golden);
    let parsed = MetricsSnapshot::from_json(&json).expect("snapshot json parses");
    assert_eq!(parsed, snapshot);
}

/// Everything that renders the per-label counters — `NetStats`'s
/// `Display`, the Prometheus text and the snapshot JSON — byte for byte
/// as the ordered string-keyed maps printed it at `39a46f5`.
#[test]
fn example2_rendered_counters_are_pinned() {
    let (report, metrics, _, _) = observe(workloads::example2(NetConfig::default()).0);
    let text = format!(
        "== stats ==\n{}== prometheus ==\n{}== snapshot ==\n{}\n",
        report.stats,
        metrics.prometheus(),
        metrics.snapshot().to_json()
    );
    assert_eq!(text, include_str!("fixtures/example2_counters.txt"));
}

/// Example 2's Chrome trace: loadable JSON, one track per participant,
/// every `B` matched by an `E` on the same track with non-decreasing
/// timestamps.
#[test]
fn example2_chrome_trace_roundtrips() {
    let mut chrome = ChromeTraceExporter::new();
    let _ = workloads::example2(NetConfig::default())
        .0
        .scenario
        .run_observed(&mut chrome);
    let text = chrome.to_json();
    let doc = caex_obs::json::parse(&text).expect("chrome trace parses");
    let spans = check_balanced(&doc).expect("spans balance");
    assert!(spans >= 8, "A0 on four objects plus nested spans: {spans}");
    let tracks = track_ids(&doc);
    assert_eq!(tracks.len(), 4, "one track per participant: {tracks:?}");
    assert_eq!(&tracks, chrome.tracks());
}

/// The JSONL exporter writes one parseable object per event.
#[test]
fn jsonl_exports_one_line_per_event() {
    let mut jsonl = JsonlExporter::new();
    let mut recorder = Recorder::new();
    {
        let mut tee = Tee::new().with(&mut jsonl).with(&mut recorder);
        let _ = workloads::example1(NetConfig::default())
            .0
            .scenario
            .run_observed(&mut tee);
    }
    assert_eq!(jsonl.len(), recorder.events.len());
    for line in jsonl.contents().lines() {
        let value = caex_obs::json::parse(line).expect("every line is JSON");
        assert!(value.get("kind").is_some(), "line lacks kind: {line}");
    }
}

/// The threaded engine streams the same protocol with wall-clock
/// timestamps: the §4.4 law holds on real threads and the latency is
/// measured in real microseconds.
#[test]
fn thread_engine_observed_matches_law_with_wall_clock() {
    use caex::thread_engine::ThreadRunner;
    use caex::Scenario;
    use caex_action::{ActionRegistry, ActionScope};
    use caex_net::NodeId;
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
    let mut metrics = MetricsRegistry::new().with_law(analysis::messages_general);
    let mut watchdog = Watchdog::new();
    {
        let mut tee = Tee::new().with(&mut metrics).with(&mut watchdog);
        let scenario = Scenario::new(Arc::new(reg))
            .enter_all_at(SimTime::ZERO, a1)
            .raise_at(
                SimTime::from_millis(1),
                NodeId::new(0),
                Exception::new(ExceptionId::new(1)),
            )
            .raise_at(
                SimTime::from_millis(1),
                NodeId::new(2),
                Exception::new(ExceptionId::new(2)),
            );
        let _ = ThreadRunner::new(scenario).run_observed(&mut tee);
    }
    assert!(watchdog.is_clean(), "{:?}", watchdog.violations());
    assert_eq!(metrics.resolutions().len(), 1);
    let r = &metrics.resolutions()[0];
    assert_eq!((r.n, r.p, r.q), (3, 2, 0));
    assert_eq!(r.messages, analysis::messages_general(3, 2, 0));
    assert_eq!(r.law_holds, Some(true));
    let wall = r.wall_latency_us.expect("thread engine carries wall time");
    assert!(wall > 0, "commit strictly after the 1 ms raise");
}

/// The centralized baseline reports its fixed coordinator as the
/// elected resolver and its `central_report`/`central_commit` traffic.
#[test]
fn central_observed_reports_coordinator_election() {
    use caex::central;
    use caex_net::NodeId;
    use caex_tree::{chain_tree, ExceptionId};
    use std::sync::Arc;

    let mut metrics = MetricsRegistry::new();
    let mut recorder = Recorder::new();
    let raises: Vec<_> = (1..4)
        .map(|i| (NodeId::new(i), ExceptionId::new(i)))
        .collect();
    {
        let mut tee = Tee::new().with(&mut metrics).with(&mut recorder);
        let report = central::run_observed(
            6,
            Arc::new(chain_tree(4)),
            NodeId::new(0),
            &raises,
            SimTime::from_millis(1),
            NetConfig::default(),
            &mut tee,
        );
        assert!(report.resolved_everywhere(6));
    }
    assert_eq!(metrics.messages_total().get("central_report"), Some(&3));
    assert_eq!(metrics.messages_total().get("central_commit"), Some(&5));
    assert!(recorder.events.iter().any(|e| matches!(
        e.kind,
        caex_obs::ObsKind::ResolverElected { resolver } if resolver == NodeId::new(0)
    )));
    assert_eq!(metrics.resolutions().len(), 1);
    assert!(metrics.resolutions()[0].latency_us >= 1_000, "window floor");
}

/// The CR baseline's §3.3 domino is visible as a chain of `Raise`
/// events inside one round, and every counted send has an event.
#[test]
fn cr_observed_domino_raises_and_message_parity() {
    use caex::cr;
    use caex_net::NodeId;
    use caex_tree::{chain_tree, interleaved_reduced_trees, ExceptionId};
    use std::sync::Arc;

    let tree = Arc::new(chain_tree(8));
    let (odd, even) = interleaved_reduced_trees(&tree, 8);
    let mut recorder = Recorder::new();
    let report = cr::run_observed(
        2,
        tree,
        vec![odd, even],
        &[(NodeId::new(1), ExceptionId::new(8))],
        NetConfig::default(),
        &mut recorder,
    );
    let raises = recorder
        .events
        .iter()
        .filter(|e| e.kind.label() == "raise")
        .count();
    assert_eq!(raises as u32, report.raised_total);
    assert!(raises >= 8, "the domino climbed the chain: {raises}");
    let sends = recorder
        .events
        .iter()
        .filter(|e| e.kind.label() == "message_sent")
        .count();
    assert_eq!(sends as u64, report.total_messages());
    assert_eq!(report.committed, Some(ExceptionId::ROOT));
}

/// The watchdog flags protocol-impossible streams that the real
/// engines never produce: an `N→R` jump, a handler inside an open
/// abortion, and a handler end without a start.
#[test]
fn watchdog_flags_synthetic_violations() {
    use caex_action::ActionId;
    use caex_net::NodeId;
    use caex_obs::{CorrelationId, ObsEvent, ObsState, Observer};

    let event = |kind: ObsKind| ObsEvent {
        at: SimTime::from_micros(1),
        wall_micros: None,
        object: NodeId::new(0),
        span: CorrelationId {
            action: ActionId::new(0),
            round: 1,
        },
        kind,
    };
    let mut jump = Watchdog::new();
    jump.on_event(&event(ObsKind::StateTransition {
        from: ObsState::N,
        to: ObsState::R,
    }));
    assert!(!jump.is_clean(), "N→R skips the X/S phases");

    let mut during = Watchdog::new();
    during.on_event(&event(ObsKind::AbortionStart { depth: 1 }));
    during.on_event(&event(ObsKind::HandlerStart {
        exception: caex_tree::ExceptionId::new(1),
    }));
    assert!(!during.is_clean(), "handler inside an open abortion");

    let mut unbalanced = Watchdog::new();
    unbalanced.on_event(&event(ObsKind::HandlerEnd { signalled: false }));
    assert!(!unbalanced.is_clean(), "handler end without start");
}

mod span_properties {
    use super::*;
    use proptest::prelude::*;

    fn arb_npq() -> impl Strategy<Value = (u32, u32, u32)> {
        (2u32..8).prop_flat_map(|n| {
            (1u32..=n).prop_flat_map(move |p| (0u32..=(n - p)).prop_map(move |q| (n, p, q)))
        })
    }

    proptest! {
        /// Over random `(N, P, Q)` workloads, the Chrome trace always
        /// balances: every `B` has a matching same-name `E` on its
        /// track with non-decreasing timestamps, and the trace carries
        /// one track per participant.
        #[test]
        fn chrome_spans_balance_on_random_workloads((n, p, q) in arb_npq()) {
            let workload = workloads::general(n, p, q, NetConfig::default());
            let mut chrome = ChromeTraceExporter::new();
            let _ = workload.scenario.run_observed(&mut chrome);
            let doc = caex_obs::json::parse(&chrome.to_json()).expect("trace parses");
            let spans = check_balanced(&doc).expect("B/E pairs balance");
            prop_assert!(spans >= n as usize, "at least one span per object");
            prop_assert_eq!(track_ids(&doc).len(), n as usize);
        }
    }
}
