//! The fault-tolerant production cell — the classic CA-action case
//! study — exercising every part of the library together: nested
//! actions, concurrent exceptions, exception-tree resolution, abortion
//! handlers, and transactional atomic objects under forward recovery.
//!
//! Devices (participating objects): feed belt, rotary table, robot,
//! press. Processing one metal blank is a top-level CA action; the
//! robot and press cooperate in a nested "press blank" action. The
//! blank itself is an external atomic object.
//!
//! Scenario: while the nested press action runs, the **feed belt**
//! detects a blank misalignment (raises in the outer action) at the
//! same moment the **press** detects a jam (raises inside the nested
//! action). The protocol must abort the nested action (its abortion
//! handler signals `press_failure` upward after retracting the press),
//! eliminate the nested resolution, resolve `{misalignment,
//! press_failure}` to the covering `cell_fault`, and run the cell-fault
//! handler in all four devices — which repairs the blank's state
//! transactionally.
//!
//! Run with: `cargo run --example production_cell`

use caex::{Note, Scenario};
use caex_action::atomic::Store;
use caex_action::{AbortionOutcome, ActionRegistry, ActionScope, HandlerOutcome, HandlerTable};
use caex_net::{LatencyModel, NetConfig, NodeId, SimTime};
use caex_tree::{Exception, Severity, TreeBuilder};
use parking_lot::Mutex;
use std::sync::Arc;

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum BlankState {
    OnTable,
    InPress,
    Safe,
}

fn main() {
    // Exception hierarchy of the cell.
    let mut b = TreeBuilder::new("universal_exception");
    let cell_fault = b.child_of_root("cell_fault").unwrap();
    let misalignment = b.child("blank_misalignment", cell_fault).unwrap();
    let press_failure = b.child("press_failure", cell_fault).unwrap();
    let press_jam = b.child("press_jam", press_failure).unwrap();
    let tree = Arc::new(b.build().unwrap());

    // Devices.
    let feed_belt = NodeId::new(0);
    let table = NodeId::new(1);
    let robot = NodeId::new(2);
    let press = NodeId::new(3);

    // Actions: process ⊃ press_op{robot, press}.
    let mut registry = ActionRegistry::new();
    let process = registry
        .declare(ActionScope::top_level(
            "process-blank",
            [feed_belt, table, robot, press],
            Arc::clone(&tree),
        ))
        .unwrap();
    let press_op = registry
        .declare(ActionScope::nested(
            "press-blank",
            [robot, press],
            Arc::clone(&tree),
            process,
        ))
        .unwrap();

    // The blank: an external atomic object.
    let store = Arc::new(Mutex::new(Store::<BlankState>::new()));
    let blank = store.lock().define("blank-042", BlankState::OnTable);
    let press_txn = {
        let mut s = store.lock();
        let txn = s.begin_top_level();
        s.write(txn, blank, BlankState::InPress).unwrap();
        txn
    };

    // The press's abortion handler for the nested action: physically
    // retract the press, abort the blank's transaction, and signal
    // press_failure to the containing action.
    let press_abort_table = {
        let store = Arc::clone(&store);
        let mut t = HandlerTable::recover_all(Arc::clone(&tree));
        t.on_abort(SimTime::from_micros(800), move || {
            store.lock().abort(press_txn).unwrap();
            println!("  [press] retracted, press transaction aborted");
            AbortionOutcome::Signal(
                Exception::new(press_failure)
                    .with_origin("press abortion handler")
                    .with_severity(Severity::Serious),
            )
        });
        t
    };

    // Every device's cell_fault handler cooperates; the robot is the
    // one that moves the blank to the safe position (forward recovery
    // via abort/start/commit on the atomic object).
    let robot_fault_table = {
        let store = Arc::clone(&store);
        let mut t = HandlerTable::recover_all(Arc::clone(&tree));
        t.on(cell_fault, SimTime::from_micros(1_500), move |_| {
            let mut s = store.lock();
            let recovery = s.begin_top_level();
            s.write(recovery, blank, BlankState::Safe).unwrap();
            s.commit(recovery).unwrap();
            println!("  [robot] blank moved to safe position");
            HandlerOutcome::Recovered
        });
        t
    };

    let report = Scenario::new(Arc::new(registry))
        .with_config(
            NetConfig::default()
                .with_latency(LatencyModel::Uniform {
                    min: SimTime::from_micros(80),
                    max: SimTime::from_micros(240),
                })
                .with_seed(42),
        )
        .enter_all_at(SimTime::ZERO, process)
        .enter_at(SimTime::from_micros(10), robot, press_op)
        .enter_at(SimTime::from_micros(10), press, press_op)
        .handlers(press, press_op, press_abort_table)
        .handlers(robot, process, robot_fault_table)
        // Concurrent failures: belt sees misalignment in the outer
        // action; press detects a jam inside the nested action.
        .raise_at(
            SimTime::from_micros(500),
            feed_belt,
            Exception::new(misalignment)
                .with_origin("feed belt optical sensor")
                .with_severity(Severity::Serious),
        )
        .raise_at(
            SimTime::from_micros(500),
            press,
            Exception::new(press_jam)
                .with_origin("press torque monitor")
                .with_severity(Severity::Serious),
        )
        .run();

    println!("=== Production cell: concurrent failure recovery ===\n");
    for note in &report.notes {
        match note {
            Note::Raised {
                object,
                action,
                exc,
            } => {
                println!(
                    "  {object} raised {} in {action}",
                    tree.name(exc.id()).unwrap()
                );
            }
            Note::AbortedNested { object, chain, .. } => {
                println!("  {object} aborted nested {chain:?}");
            }
            Note::ResolutionCommitted {
                resolver,
                resolved,
                raised,
                ..
            } => {
                println!(
                    "  {resolver} resolved {{{}}} -> {}",
                    raised
                        .iter()
                        .map(|(o, e)| format!("{o}:{}", tree.name(e.id()).unwrap()))
                        .collect::<Vec<_>>()
                        .join(", "),
                    tree.name(resolved.id()).unwrap()
                );
            }
            _ => {}
        }
    }

    let r = report.resolution_for(process).expect("resolution");
    assert_eq!(r.resolved.id(), cell_fault, "covering exception chosen");
    assert!(
        r.raised.iter().any(|(_, e)| e.id() == press_failure),
        "the nested abortion signal joined the resolution"
    );
    assert!(
        r.raised.iter().all(|(_, e)| e.id() != press_jam),
        "the nested-level jam itself was eliminated with the nested resolution"
    );
    assert_eq!(report.handlers_for(process).len(), 4);
    assert!(report.is_clean());

    let final_state = store.lock().read_committed(blank);
    println!("\nblank final state: {final_state:?}");
    assert_eq!(final_state, BlankState::Safe);
    assert_eq!(store.lock().abort_count(blank), 1);
    println!(
        "\nOK: nested press action aborted, cell fault resolved cooperatively, \
         blank recovered transactionally ({} messages, finished at {}).",
        report.total_messages(),
        report.finished_at
    );
}
