//! Microbenches of the substrates: exception-tree resolution, the
//! discrete-event network, and the atomic-object store. These are not
//! paper tables; they bound the measurement overhead of the harness
//! itself.

use caex_net::{Kinded, NetConfig, NodeId, SimNet};
use caex_tree::{balanced_tree, chain_tree, ExceptionId};
use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use std::hint::black_box;

fn bench_tree_resolution(c: &mut Criterion) {
    let mut group = c.benchmark_group("tree_resolve");
    for depth in [4u32, 8, 16] {
        let tree = balanced_tree(2, depth.min(12));
        let leaves = tree.leaves();
        let raised: Vec<ExceptionId> = leaves.iter().copied().take(16).collect();
        group.bench_with_input(
            BenchmarkId::new("balanced_16_leaves", depth),
            &depth,
            |b, _| {
                b.iter(|| black_box(tree.resolve(raised.iter().copied()).unwrap()));
            },
        );
    }
    let chain = chain_tree(1024);
    group.bench_function("chain_1024_extremes", |b| {
        b.iter(|| {
            black_box(
                chain
                    .resolve([ExceptionId::new(1), ExceptionId::new(1024)])
                    .unwrap(),
            )
        });
    });
    group.finish();
}

fn bench_simnet(c: &mut Criterion) {
    let mut group = c.benchmark_group("simnet");
    for msgs in [1_000u32, 10_000] {
        group.bench_with_input(BenchmarkId::new("send_deliver", msgs), &msgs, |b, &msgs| {
            b.iter(|| {
                let mut net: SimNet<&'static str> = SimNet::new(NetConfig::default(), 8);
                for i in 0..msgs {
                    net.send(NodeId::new(i % 8), NodeId::new((i + 1) % 8), "payload");
                }
                let mut count = 0u32;
                while net.next_delivery().is_some() {
                    count += 1;
                }
                black_box(count)
            });
        });
    }
    // The `fleet_small` batch shape: 1 000 four-node instances on one
    // net (4 000 nodes, 12 000 distinct channels, 2 000 action
    // indices), two sends per channel, each instance's traffic
    // delivered before the next one sends — few messages in flight,
    // many channels and actions on the books.
    group.bench_function("fleet_shape_4000_nodes", |b| {
        b.iter(|| {
            let mut net: SimNet<FleetMsg> = SimNet::new(NetConfig::default(), 4_000);
            let mut count = 0u32;
            for instance in 0..1_000u32 {
                for _ in 0..2 {
                    for from in 0..4u32 {
                        for to in (0..4u32).filter(|&to| to != from) {
                            let action = instance * 2 + from / 2;
                            net.send(
                                NodeId::new(instance * 4 + from),
                                NodeId::new(instance * 4 + to),
                                FleetMsg { action },
                            );
                        }
                    }
                    while net.next_delivery().is_some() {
                        count += 1;
                    }
                }
            }
            black_box(count)
        });
    });
    group.finish();
}

/// A payload attributed to an action, as the protocol's messages are.
#[derive(Clone)]
struct FleetMsg {
    action: u32,
}

impl Kinded for FleetMsg {
    fn kind(&self) -> &'static str {
        "exception"
    }

    fn action_index(&self) -> Option<u32> {
        Some(self.action)
    }
}

fn bench_store(c: &mut Criterion) {
    use caex_action::atomic::Store;
    let mut group = c.benchmark_group("atomic_store");
    group.bench_function("txn_write_commit", |b| {
        b.iter(|| {
            let mut store: Store<u64> = Store::new();
            let obj = store.define("x", 0);
            for i in 0..100 {
                let t = store.begin_top_level();
                store.write(t, obj, i).unwrap();
                store.commit(t).unwrap();
            }
            black_box(store.committed(obj))
        });
    });
    group.bench_function("nested_txn_depth_8", |b| {
        b.iter(|| {
            let mut store: Store<u64> = Store::new();
            let obj = store.define("x", 0);
            let mut txns = vec![store.begin_top_level()];
            for _ in 0..7 {
                let child = store.begin_nested(*txns.last().unwrap()).unwrap();
                txns.push(child);
            }
            store.write(*txns.last().unwrap(), obj, 9).unwrap();
            for t in txns.into_iter().rev() {
                store.commit(t).unwrap();
            }
            black_box(store.committed(obj))
        });
    });
    group.finish();
}

fn bench_codec(c: &mut Criterion) {
    use caex::codec;
    use caex::Msg;
    use caex_action::ActionId;
    use caex_tree::{Exception, ExceptionId, Severity};

    let mut group = c.benchmark_group("codec");
    let rich = Msg::Exception {
        action: ActionId::new(3),
        from: NodeId::new(7),
        exc: Exception::new(ExceptionId::new(42))
            .with_severity(Severity::Serious)
            .with_origin("pressure sensor 9")
            .with_detail("reading outside calibrated envelope"),
    };
    let ack = Msg::Ack {
        from: NodeId::new(1),
        action: ActionId::new(3),
    };
    group.bench_function("encode_rich_exception", |b| {
        b.iter(|| black_box(codec::encode(&rich)));
    });
    group.bench_function("encode_ack", |b| {
        b.iter(|| black_box(codec::encode(&ack)));
    });
    let rich_bytes = codec::encode(&rich);
    group.bench_function("decode_rich_exception", |b| {
        b.iter(|| black_box(codec::decode(&rich_bytes).unwrap()));
    });
    group.finish();
}

fn bench_central(c: &mut Criterion) {
    use caex::central;
    use caex_tree::{chain_tree as chain, ExceptionId};
    use std::sync::Arc;

    let mut group = c.benchmark_group("central_coordinator");
    for n in [8u32, 32] {
        group.bench_with_input(BenchmarkId::from_parameter(n), &n, |b, &n| {
            let tree = Arc::new(chain(n));
            let raises: Vec<_> = (1..n)
                .map(|i| (NodeId::new(i), ExceptionId::new(i)))
                .collect();
            b.iter(|| {
                let report = central::run(
                    n,
                    Arc::clone(&tree),
                    NodeId::new(0),
                    &raises,
                    caex_net::SimTime::from_millis(1),
                    NetConfig::default(),
                );
                black_box(report.total_messages())
            });
        });
    }
    group.finish();
}

criterion_group!(
    benches,
    bench_tree_resolution,
    bench_simnet,
    bench_store,
    bench_codec,
    bench_central
);
criterion_main!(benches);
