//! Trace-level checks of the paper's worked examples: not just the
//! outcome, but the message-by-message narrative of §4.3.

use caex::workloads;
use caex_net::{NetConfig, NodeId, SimTime};
use caex_obs::{text, ObsKind, Recorder};

/// One `MessageSent` of the observed stream.
struct Sent {
    at: SimTime,
    from: NodeId,
    to: NodeId,
    label: &'static str,
}

/// Runs `w` under a recorder: the report, and every send in stream order.
fn observed(w: workloads::Workload) -> (caex::RunReport, Vec<Sent>) {
    let mut recorder = Recorder::new();
    let report = w.scenario.run_observed(&mut recorder);
    let sends = recorder.events.iter().filter_map(|e| match e.kind {
        ObsKind::MessageSent { kind: label, to } => {
            Some(Sent { at: e.at, from: e.object, to, label })
        }
        _ => None,
    });
    (report, sends.collect())
}

/// Example 1's narrative, checked against the actual delivery trace.
#[test]
fn example1_trace_matches_narrative() {
    let (w, ids) = workloads::example1(NetConfig::default());
    let (report, sends) = observed(w);
    let o1 = NodeId::new(1);
    let o2 = NodeId::new(2);
    let o3 = NodeId::new(3);

    // "O1: sends Exception to O2 and O3".
    let o1_exceptions: Vec<_> = sends
        .iter()
        .filter(|e| e.label == "exception" && e.from == o1)
        .map(|e| e.to)
        .collect();
    assert_eq!(o1_exceptions, vec![o2, o3]);

    // "O2: sends Exception to O1 and O3".
    let o2_exceptions: Vec<_> = sends
        .iter()
        .filter(|e| e.label == "exception" && e.from == o2)
        .map(|e| e.to)
        .collect();
    assert_eq!(o2_exceptions, vec![o1, o3]);

    // "O3: receives Exceptions from O1 and O2, sends ACKs for two
    // Exception messages to them."
    let o3_acks: Vec<_> = sends
        .iter()
        .filter(|e| e.label == "ack" && e.from == o3)
        .map(|e| e.to)
        .collect();
    assert_eq!(o3_acks.len(), 2);
    assert!(o3_acks.contains(&o1) && o3_acks.contains(&o2));

    // "O2 ... sends Commit(E) to O1 and O3" — and only O2 commits.
    let commit_senders: Vec<_> = sends
        .iter()
        .filter(|e| e.label == "commit")
        .map(|e| e.from)
        .collect();
    assert_eq!(commit_senders, vec![o2, o2]);

    // Commit is the last protocol activity: every commit send comes
    // after every exception send.
    let last_exception_send = sends
        .iter()
        .filter(|e| e.label == "exception")
        .map(|e| e.at)
        .max()
        .unwrap();
    let first_commit_send = sends
        .iter()
        .filter(|e| e.label == "commit")
        .map(|e| e.at)
        .min()
        .unwrap();
    assert!(first_commit_send >= last_exception_send);

    let r = report.resolution_for(ids.a1).unwrap();
    assert_eq!(r.resolver, o2);
}

/// Example 2's narrative: HaveNested fan-out, NestedCompleted with the
/// abortion signal, and O2's deferred ACK to O1.
#[test]
fn example2_trace_matches_narrative() {
    let (w, ids) = workloads::example2(NetConfig::default());
    let (report, sends) = observed(w);
    let o1 = NodeId::new(1);
    let o2 = NodeId::new(2);
    let o3 = NodeId::new(3);
    let o4 = NodeId::new(4);

    // "O2 ... has to send HaveNested to O1, O3 and O4."
    for (sender, peers) in [(o2, [o1, o3, o4]), (o3, [o1, o2, o4]), (o4, [o1, o2, o3])] {
        let sent: Vec<_> = sends
            .iter()
            .filter(|e| e.label == "have_nested" && e.from == sender)
            .map(|e| e.to)
            .collect();
        assert_eq!(sent, peers.to_vec(), "HaveNested fan-out of {sender}");
    }

    // Each nested object sends NestedCompleted to the other three.
    for sender in [o2, o3, o4] {
        let count = sends
            .iter()
            .filter(|e| e.label == "nested_completed" && e.from == sender)
            .count();
        assert_eq!(count, 3, "NestedCompleted fan-out of {sender}");
    }

    // O1 raised but never sends HaveNested (it has no nested actions).
    assert_eq!(
        sends
            .iter()
            .filter(|e| e.label == "have_nested" && e.from == o1)
            .count(),
        0
    );

    // FIFO discipline on the O2 -> O1 channel: HaveNested before
    // NestedCompleted before the (deferred) ACK.
    let o2_to_o1: Vec<&str> = sends
        .iter()
        .filter(|e| e.from == o2 && e.to == o1)
        .map(|e| e.label)
        .collect();
    let hn = o2_to_o1.iter().position(|&l| l == "have_nested").unwrap();
    let nc = o2_to_o1
        .iter()
        .position(|&l| l == "nested_completed")
        .unwrap();
    let ack = o2_to_o1.iter().position(|&l| l == "ack").unwrap();
    assert!(hn < nc && nc < ack, "order was {o2_to_o1:?}");

    // Only O2 commits, to its three peers.
    let commits: Vec<_> = sends
        .iter()
        .filter(|e| e.label == "commit")
        .map(|e| (e.from, e.to))
        .collect();
    assert_eq!(commits.len(), 3);
    assert!(commits.iter().all(|&(from, _)| from == o2));

    let r = report.resolution_for(ids.a1).unwrap();
    assert_eq!(
        r.resolved.id(),
        ids.e1,
        "resolve({{e1,e3}}) on the chain = e1"
    );
}

/// Message totals of Example 2 decompose as expected: 1 visible raiser
/// exception broadcast (O2's A3 exception is buffered-then-cleaned,
/// O1's counts), Q = 3 nested objects, plus O2's nested raise that only
/// produced one (cleaned) message.
#[test]
fn example2_message_totals() {
    let (w, _ids) = workloads::example2(NetConfig::default());
    let report = w.run();
    // O1's Exception broadcast: 3. O2's Exception inside A3: 1 (to O3).
    assert_eq!(report.messages_of("exception"), 4);
    assert_eq!(report.messages_of("have_nested"), 9); // 3 objects × 3 peers
    assert_eq!(report.messages_of("nested_completed"), 9);
    // ACKs: 3 for O1's exception + 9 for the NestedCompleteds. O2's A3
    // exception is never ACKed (cleaned up at belated O3).
    assert_eq!(report.messages_of("ack"), 12);
    assert_eq!(report.messages_of("commit"), 3);
    assert_eq!(report.total_messages(), 4 + 9 + 9 + 12 + 3);
}

/// Example 2's core properties are interleaving-independent: under
/// heavy latency jitter, every schedule still eliminates the nested
/// resolution, elects O2, and keeps E2 out of the resolved set.
#[test]
fn example2_properties_hold_under_jitter() {
    use caex_net::{LatencyModel, SimTime};
    for seed in 0..60u64 {
        let config = NetConfig::default()
            .with_seed(seed)
            .with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(10),
                max: SimTime::from_micros(4_000),
            });
        let (w, ids) = workloads::example2(config);
        let report = w.run();
        assert!(report.is_clean(), "seed {seed}: {report}");
        assert_eq!(report.resolutions.len(), 1, "seed {seed}");
        let r = report.resolution_for(ids.a1).expect("resolution in A1");
        assert_eq!(r.resolver, NodeId::new(2), "seed {seed}");
        assert!(
            r.raised.iter().all(|(_, e)| e.id() != ids.e2),
            "seed {seed}: E2 must be eliminated"
        );
        assert!(
            r.raised.iter().any(|(_, e)| e.id() == ids.e3),
            "seed {seed}: the abortion signal must join"
        );
        assert_eq!(report.handlers_for(ids.a1).len(), 4, "seed {seed}");
    }
}

/// Example 1's totals are interleaving-independent too.
#[test]
fn example1_counts_hold_under_jitter() {
    use caex_net::{LatencyModel, SimTime};
    for seed in 0..60u64 {
        let config = NetConfig::default()
            .with_seed(seed)
            .with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(10),
                max: SimTime::from_micros(4_000),
            });
        let (w, ids) = workloads::example1(config);
        let report = w.run();
        assert!(report.is_clean(), "seed {seed}");
        assert_eq!(
            report.total_messages(),
            caex::analysis::messages_general(3, 2, 0),
            "seed {seed}"
        );
        assert_eq!(
            report.resolution_for(ids.a1).unwrap().resolver,
            NodeId::new(2),
            "seed {seed}"
        );
    }
}

/// Determinism of the full example traces under a fixed seed.
#[test]
fn example_traces_are_reproducible() {
    let render = || {
        let (w, _) = workloads::example2(NetConfig::default().with_seed(5));
        let mut recorder = Recorder::new();
        let _ = w.scenario.run_observed(&mut recorder);
        text::render(&recorder.events)
    };
    assert_eq!(render(), render());
}
