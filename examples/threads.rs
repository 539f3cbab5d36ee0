//! The same resolution protocol on real OS threads.
//!
//! Everything else in this repository runs on the deterministic
//! discrete-event simulator (the measurement instrument). This example
//! runs the identical [`caex::Participant`] state machine on one OS
//! thread per object over in-process channels, showing the algorithm is
//! an executable distributed protocol: five objects, three concurrent
//! exceptions, one agreed outcome.
//!
//! Run with: `cargo run --example threads`

use caex::thread_engine::ThreadRunner;
use caex::Scenario;
use caex_action::{ActionRegistry, ActionScope};
use caex_net::{NodeId, SimTime};
use caex_tree::{balanced_tree, Exception};
use std::sync::Arc;

fn main() {
    let tree = Arc::new(balanced_tree(2, 3)); // 15 exception classes
    let leaves = tree.leaves();
    let mut registry = ActionRegistry::new();
    let action = registry
        .declare(ActionScope::top_level(
            "threaded-action",
            (0..5).map(NodeId::new),
            Arc::clone(&tree),
        ))
        .unwrap();

    // The scenario the simulator would take; here it runs on threads.
    let scenario = Scenario::new(Arc::new(registry))
        .enter_all_at(SimTime::ZERO, action)
        .raise_at(
            SimTime::from_millis(2),
            NodeId::new(0),
            Exception::new(leaves[0]).with_origin("thread-0"),
        )
        .raise_at(
            SimTime::from_millis(2),
            NodeId::new(2),
            Exception::new(leaves[1]).with_origin("thread-2"),
        )
        .raise_at(
            SimTime::from_millis(2),
            NodeId::new(4),
            Exception::new(leaves[3]).with_origin("thread-4"),
        );
    let report = ThreadRunner::new(scenario).run();

    println!("=== Threaded run over in-process channels ===");
    let handled = report.handled_exceptions(action);
    for (object, exc) in &handled {
        println!("  {object} started handler for {}", exc.id());
    }
    let agreed = report
        .agreed_exception(action)
        .expect("resolution must commit");
    assert_eq!(handled.len(), 5, "all five objects must handle");
    println!(
        "\nAgreement across threads on {} ({} protocol messages).",
        agreed.id(),
        report.stats.sent_total()
    );
    // Coverage: the agreed exception dominates every raised leaf.
    for raised in [leaves[0], leaves[1], leaves[3]] {
        assert!(tree.is_ancestor(agreed.id(), raised).unwrap());
    }
    println!("OK: coverage and agreement hold outside the simulator too.");
}
