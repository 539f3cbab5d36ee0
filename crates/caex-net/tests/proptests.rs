//! Property tests of the simulator's substrate guarantees: FIFO per
//! ordered pair, reliability in the benign regime, determinism, and
//! monotone virtual time — the §4.2 assumptions the algorithm builds
//! on, fuzzed — and of the event queue's total order under every
//! latency model and deferring fault.

use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimNet, SimTime};
use proptest::prelude::*;
use std::collections::HashMap;

#[derive(Debug, Clone, Copy)]
struct Send {
    from: u32,
    to: u32,
    tag: u32,
}

fn arb_sends(nodes: u32) -> impl Strategy<Value = Vec<Send>> {
    prop::collection::vec(
        (0..nodes, 0..nodes, any::<u32>()).prop_map(|(from, to, tag)| Send { from, to, tag }),
        1..80,
    )
}

/// Payload carrying the global send sequence number and a tag.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
struct Payload {
    seq: u32,
    tag: u32,
}

impl caex_net::Kinded for Payload {
    fn kind(&self) -> &'static str {
        "payload"
    }
}

fn run(
    sends: &[Send],
    nodes: u32,
    seed: u64,
    max_latency: u64,
) -> Vec<(SimTime, NodeId, NodeId, u32)> {
    let mut net: SimNet<Payload> = SimNet::new(
        NetConfig::default()
            .with_seed(seed)
            .with_latency(LatencyModel::Uniform {
                min: SimTime::from_micros(1),
                max: SimTime::from_micros(max_latency.max(2)),
            }),
        nodes,
    );
    for (i, s) in sends.iter().enumerate() {
        net.send(
            NodeId::new(s.from),
            NodeId::new(s.to),
            Payload {
                seq: i as u32,
                tag: s.tag,
            },
        );
    }
    let mut out = Vec::new();
    while let Some(d) = net.next_delivery() {
        if let caex_net::DeliverySource::Remote(from) = d.source {
            out.push((d.at, from, d.to, d.payload.seq));
        }
    }
    out
}

/// One call on the net. Its position in the script is the tag its
/// payload carries, which orders entries exactly as the net's own
/// sequence numbers do (no fault below makes two entries of one call).
#[derive(Debug, Clone, Copy)]
enum Call {
    Send { from: u32, to: u32 },
    Local { at: u64, node: u32 },
    Deliver,
}

const QUEUE_NODES: u32 = 4;

fn arb_calls() -> impl Strategy<Value = Vec<Call>> {
    let send = || (0..QUEUE_NODES, 0..QUEUE_NODES).prop_map(|(from, to)| Call::Send { from, to });
    prop::collection::vec(
        prop_oneof![
            send(),
            send(),
            (0u64..2_000, 0..QUEUE_NODES).prop_map(|(at, node)| Call::Local { at, node }),
            Just(Call::Deliver),
        ],
        1..160,
    )
}

/// Every latency model, FIFO on and off, constant and jittery
/// overrides on single links, a slowdown window, and the faults that
/// move a delivery time without dropping the entry: a reorder window, a
/// clock freeze and a healing partition.
fn arb_queue_config() -> impl Strategy<Value = NetConfig> {
    (
        (0u8..3, 0u64..300, 1u64..300),
        (
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
            any::<bool>(),
        ),
        0u8..3,
        any::<u64>(),
    )
        .prop_map(queue_config)
}

type QueueKnobs = ((u8, u64, u64), (bool, bool, bool, bool, bool), u8, u64);

fn queue_config(
    ((model, a, b), (fifo, reorder, freeze, heal, slowdown), links, seed): QueueKnobs,
) -> NetConfig {
    let us = SimTime::from_micros;
    let jitter = LatencyModel::Uniform {
        min: us(a),
        max: us(a + b),
    };
    let latency = match model {
        0 => LatencyModel::Constant(us(a)),
        1 => jitter,
        _ => LatencyModel::Exponential {
            min: us(a),
            mean: us(b),
        },
    };
    let mut faults = FaultPlan::none();
    if reorder {
        faults = faults.with_reorder_window(0.3, us(400));
    }
    if freeze {
        faults = faults.with_clock_freeze(NodeId::new(1), us(100), us(700));
    }
    if heal {
        faults = faults.with_healing_partition([NodeId::new(0)], us(50), us(900));
    }
    if slowdown {
        faults = faults.with_slowdown(4, us(100), us(600));
    }
    let mut config = NetConfig::default()
        .with_latency(latency)
        .with_fifo(fifo)
        .with_faults(faults)
        .with_seed(seed);
    // Overrides on two links: both constant, or one constant and one
    // jittery.
    if links > 0 {
        let other = if links == 1 {
            LatencyModel::Constant(us(b))
        } else {
            jitter
        };
        config = config
            .with_link_latency(
                NodeId::new(0),
                NodeId::new(1),
                LatencyModel::Constant(us(3 * a)),
            )
            .with_link_latency(NodeId::new(2), NodeId::new(3), other);
    }
    config
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// The queue's order is total and independent of how it stores an
    /// entry: whatever the interleaving of sends, local events and
    /// deliveries, the delivery sequence is strictly sorted by (time,
    /// call index), every entry is delivered exactly once, and the
    /// in-flight count is entries made minus entries delivered, in all
    /// and per destination. With FIFO on and no reorder window, every
    /// channel delivers in send order, whether the net clamps a
    /// channel's deliveries or not.
    #[test]
    fn deliveries_are_sorted_by_time_then_call_index(
        calls in arb_calls(),
        config in arb_queue_config(),
    ) {
        let fifo = config.fifo && config.faults.reorder_probability() == 0.0;
        let mut net: SimNet<Payload> = SimNet::new(config, QUEUE_NODES);
        let mut made = Vec::new();
        let mut delivered = Vec::new();
        let mut channel_of = HashMap::new();
        // Entries made minus entries delivered, per destination.
        let mut queued_for = [0usize; QUEUE_NODES as usize];
        for (i, call) in calls.iter().enumerate() {
            let payload = Payload { seq: i as u32, tag: 0 };
            match *call {
                Call::Send { from, to } => {
                    net.send(NodeId::new(from), NodeId::new(to), payload);
                    made.push(payload.seq);
                    channel_of.insert(payload.seq, (from, to));
                    queued_for[to as usize] += 1;
                }
                Call::Local { at, node } => {
                    net.schedule_local(SimTime::from_micros(at), NodeId::new(node), payload);
                    made.push(payload.seq);
                    queued_for[node as usize] += 1;
                }
                Call::Deliver => {
                    if let Some(d) = net.next_delivery() {
                        delivered.push((d.at, d.payload.seq));
                        queued_for[d.to.index() as usize] -= 1;
                    }
                }
            }
            prop_assert_eq!(net.in_flight(), made.len() - delivered.len());
            prop_assert_eq!(net.is_quiescent(), made.len() == delivered.len());
            for node in net.nodes() {
                prop_assert_eq!(net.in_flight_to(node), queued_for[node.index() as usize]);
            }
        }
        prop_assert!(net.stats().max_in_flight() <= made.len());
        delivered.extend(net.drain().into_iter().map(|d| (d.at, d.payload.seq)));
        prop_assert!(net.is_quiescent());
        for pair in delivered.windows(2) {
            prop_assert!(pair[0] < pair[1], "{:?} delivered before {:?}", pair[0], pair[1]);
        }
        let mut last_on_channel = HashMap::new();
        for &(at, seq) in delivered.iter().filter(|_| fifo) {
            let Some(&channel) = channel_of.get(&seq) else { continue };
            if let Some(prev) = last_on_channel.insert(channel, (at, seq)) {
                prop_assert!(
                    prev.1 < seq,
                    "channel {:?}: send {} delivered at {} before send {} at {}",
                    channel, prev.1, prev.0, seq, at
                );
            }
        }
        let mut seen: Vec<u32> = delivered.iter().map(|&(_, seq)| seq).collect();
        seen.sort_unstable();
        prop_assert_eq!(seen, made);
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// Reliability: in the benign regime every send is delivered
    /// exactly once.
    #[test]
    fn every_send_is_delivered_once(
        sends in arb_sends(5),
        seed in any::<u64>(),
        max_latency in 2u64..5_000,
    ) {
        let delivered = run(&sends, 5, seed, max_latency);
        prop_assert_eq!(delivered.len(), sends.len());
        let mut seen: Vec<u32> = delivered.iter().map(|&(_, _, _, seq)| seq).collect();
        seen.sort_unstable();
        let expected: Vec<u32> = (0..sends.len() as u32).collect();
        prop_assert_eq!(seen, expected);
    }

    /// FIFO per ordered pair: on each channel, send order = delivery
    /// order regardless of latency jitter.
    #[test]
    fn fifo_per_channel_under_jitter(
        sends in arb_sends(4),
        seed in any::<u64>(),
        max_latency in 2u64..5_000,
    ) {
        let delivered = run(&sends, 4, seed, max_latency);
        let mut last_seq: HashMap<(NodeId, NodeId), u32> = HashMap::new();
        for (_, from, to, seq) in delivered {
            if let Some(&prev) = last_seq.get(&(from, to)) {
                prop_assert!(
                    seq > prev,
                    "channel {from}->{to}: seq {seq} after {prev}"
                );
            }
            last_seq.insert((from, to), seq);
        }
    }

    /// Virtual time is monotone non-decreasing across deliveries.
    #[test]
    fn time_is_monotone(
        sends in arb_sends(4),
        seed in any::<u64>(),
    ) {
        let delivered = run(&sends, 4, seed, 1_000);
        for w in delivered.windows(2) {
            prop_assert!(w[0].0 <= w[1].0);
        }
    }

    /// Determinism: identical seeds give identical delivery schedules;
    /// and the schedule is insensitive to nothing else (different seeds
    /// are *allowed* to differ, equal ones must not).
    #[test]
    fn equal_seeds_equal_schedules(
        sends in arb_sends(4),
        seed in any::<u64>(),
    ) {
        let a = run(&sends, 4, seed, 2_000);
        let b = run(&sends, 4, seed, 2_000);
        prop_assert_eq!(a, b);
    }
}
