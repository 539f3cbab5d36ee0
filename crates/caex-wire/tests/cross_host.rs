//! One script, admitted one way: what a scenario says about its
//! participants reaches the socket mesh as it reaches the simulator.
//! §4.3 Example 2 is the probe — its outcome rests on a handler table
//! ("`O2`'s abortion handler for `A2` signals `E3`"), and message count
//! and agreed exception alone cannot tell whether the table ran.

use caex::workloads;
use caex_net::{NetConfig, NodeId};
use caex_tree::ExceptionId;
use caex_wire::harness::{run_local, Transport};
use caex_wire::WireConfig;
use std::time::Duration;

#[test]
fn example2_over_unix_sockets_is_the_simulators_example2() {
    let (workload, ids) = workloads::example2(NetConfig::default());
    let sim = workload.run();
    let resolution = sim
        .resolution_for(ids.a1)
        .expect("the simulator resolves A1");
    let mut sim_raised: Vec<ExceptionId> = resolution.raised.iter().map(|(_, e)| e.id()).collect();
    sim_raised.sort_unstable();

    let dir = std::env::temp_dir().join(format!("caex-wire-cross-host-{}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    let wire = run_local(
        "example2",
        Transport::Unix,
        &dir,
        &WireConfig::default(),
        Duration::from_millis(300),
    )
    .expect("example2 runs over Unix sockets");

    // Exactly one node committed in A1: the resolver.
    let commits: Vec<(NodeId, Vec<ExceptionId>)> = wire
        .reports
        .iter()
        .flat_map(|r| {
            r.committed
                .iter()
                .filter(|(action, _)| *action == ids.a1.index())
                .map(|(_, raised)| {
                    (
                        NodeId::new(r.id),
                        raised.iter().copied().map(ExceptionId::new).collect(),
                    )
                })
        })
        .collect();
    assert_eq!(commits, [(resolution.resolver, sim_raised)]);
    assert_eq!(wire.resolved, sim.agreed_exception(ids.a1).map(|e| e.id()));
    assert_eq!(wire.total_sent, sim.total_messages());

    // And it is the paper's run, not merely the same one on both hosts.
    assert_eq!(commits, [(NodeId::new(2), vec![ids.e1, ids.e3])]);
    assert_eq!(wire.resolved, Some(ids.e1));
    assert_eq!(wire.total_sent, 37);
}
