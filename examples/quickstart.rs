//! Quickstart: Example 1 of the paper (§4.3).
//!
//! Three objects `O1 O2 O3` cooperate in a CA action `A1`. `O1` and
//! `O2` detect errors concurrently and raise `E1` and `E2`. The
//! resolution protocol runs; because `name(O2) > name(O1)`, `O2` is
//! elected resolver, resolves `{E1, E2}` against the action's exception
//! tree, and commits — after which all three objects start the handler
//! for the same resolved exception.
//!
//! Run with: `cargo run --example quickstart`

use caex::workloads;
use caex_net::{NetConfig, NodeId};
use caex_obs::{text, Recorder};

fn main() {
    // Build the paper's Example 1 and record its event stream.
    let (workload, ids) = workloads::example1(NetConfig::default());
    let mut recorder = Recorder::new();
    let report = workload.scenario.run_observed(&mut recorder);

    println!("=== Example 1 (paper §4.3) ===\n");
    println!("Message sequence chart (the objects are O1..O3; lifeline O0 is unused):");
    print!("{}", text::sequence_chart(&recorder.events));

    let resolution = report
        .resolution_for(ids.a1)
        .expect("a resolution must commit");
    println!("\nResolution:");
    println!(
        "  raised   : {:?}",
        resolution
            .raised
            .iter()
            .map(|(o, e)| format!("{o} raised {}", e.id()))
            .collect::<Vec<_>>()
    );
    println!(
        "  resolver : {} (the biggest name among raisers)",
        resolution.resolver
    );
    println!("  resolved : {}", resolution.resolved.id());
    assert_eq!(resolution.resolver, NodeId::new(2));

    println!("\nHandlers started:");
    for h in report.handlers_for(ids.a1) {
        println!("  {} handles {} at {}", h.object, h.exc.id(), h.at);
    }
    let agreed = report.agreed_exception(ids.a1).expect("handlers ran");
    println!(
        "\nAll {} objects agreed on {}.",
        report.handlers_for(ids.a1).len(),
        agreed.id()
    );

    println!("\nMessage accounting (paper §4.4, P=2 raisers, Q=0 nested, N=3):");
    println!("  exception        : {}", report.messages_of("exception"));
    println!("  ack              : {}", report.messages_of("ack"));
    println!("  commit           : {}", report.messages_of("commit"));
    println!("  total            : {}", report.total_messages());
    println!(
        "  formula (N-1)(2P+3Q+1) = {}",
        caex::analysis::messages_general(3, 2, 0)
    );
    assert_eq!(
        report.total_messages(),
        caex::analysis::messages_general(3, 2, 0)
    );
    println!("\nOK: executed message count matches the paper's formula.");
}
