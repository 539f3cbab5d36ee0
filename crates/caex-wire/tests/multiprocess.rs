//! Multi-process integration: one OS process per participant, real
//! sockets between them, the simulator as oracle. Examples 1 and 2
//! must resolve to the simulator's exception with the simulator's
//! message count, and a participant killed mid-resolution must surface
//! as a deserter via heartbeat timeout while resolution still
//! completes among the survivors.
//!
//! Every test that forms a mesh of OS processes is `#[ignore]`d: its
//! outcome depends on process scheduling and wall-clock detector
//! timing, which tier-1 (`cargo test -q`) must not. `scripts/check-tier2.sh`
//! runs them with `-- --ignored`.

use caex_net::NodeId;
use caex_wire::harness::{run_coordinator, CoordinatorOptions, CrashMode, Transport};
use caex_wire::scenario::WireScenario;
use std::path::PathBuf;
use std::process::Command;

fn wire_binary() -> PathBuf {
    PathBuf::from(env!("CARGO_BIN_EXE_caex-wire"))
}

fn scratch(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("caex-wire-mp-{}-{tag}", std::process::id()));
    std::fs::create_dir_all(&dir).expect("create scratch dir");
    dir
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn example1_across_processes_matches_the_law_and_the_simulator() {
    let summary = run_coordinator(&CoordinatorOptions::new("example1", wire_binary()))
        .expect("coordinated run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    assert_eq!(summary.total_sent, 10, "§4.4: (N−1)(2P+3Q+1) over real sockets");
    assert_eq!(summary.expected_messages, Some(10));
    assert_eq!(summary.sim_messages, 10);
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(summary.resolved, baseline.agreed.map(|e| e.index()));
    assert!(summary.deserters.is_empty());
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn example1_across_processes_over_unix_sockets() {
    let mut opts = CoordinatorOptions::new("example1", wire_binary());
    opts.transport = Transport::Unix;
    opts.sock_dir = scratch("uds");
    let summary = run_coordinator(&opts).expect("coordinated run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    assert_eq!(summary.total_sent, 10);
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn example2_across_processes_matches_the_simulator() {
    let summary = run_coordinator(&CoordinatorOptions::new("example2", wire_binary()))
        .expect("coordinated run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    // Example 2's cross-level run has no closed form; the simulator's
    // count is the oracle, and the coordinator already asserts it.
    assert_eq!(summary.expected_messages, None);
    assert_eq!(summary.total_sent, summary.sim_messages);
    let baseline = WireScenario::sim_baseline("example2").expect("sim oracle");
    assert_eq!(summary.resolved, baseline.agreed.map(|e| e.index()));
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn general_grid_cell_across_processes_holds_the_law() {
    let summary = run_coordinator(&CoordinatorOptions::new("general:4,2,1", wire_binary()))
        .expect("coordinated run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    assert_eq!(summary.expected_messages, Some(summary.total_sent));
}

fn crash_run(mode: CrashMode, tag: &str) {
    let victim = NodeId::new(3);
    let opts = CoordinatorOptions::new("example1", wire_binary()).with_crash(victim, mode);
    let summary = run_coordinator(&opts).expect("coordinated crash run");
    assert!(summary.ok(), "[{tag}] failures: {:?}", summary.failures);
    assert_eq!(
        summary.deserters,
        vec![victim.index()],
        "[{tag}] the killed participant must surface as a deserter"
    );
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(
        summary.resolved,
        baseline.agreed.map(|e| e.index()),
        "[{tag}] resolution must still complete among the survivors"
    );
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn killed_participant_becomes_a_deserter_and_resolution_completes() {
    crash_run(CrashMode::Exit, "exit");
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn frozen_participant_is_detected_by_heartbeat_timeout() {
    // SIGSTOP freezes the victim without closing its sockets — only
    // the heartbeat timeout can catch this one.
    crash_run(CrashMode::Stop, "stop");
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn transient_partition_heals_with_full_agreement_and_zero_deserters() {
    // Node 3 SIGSTOPs itself right after the barrier and is SIGCONTed
    // by the coordinator after a full second — well past the old fixed
    // 700ms crash timeout that would have amputated it. The phi
    // detector (tuned by `with_partition` so the outage only reaches
    // the *suspect* stage) must ride out the outage: the run is
    // assessed as a clean run, so the §4.4 message law, the exactly-one
    // -handler-per-participant check, and the zero-deserter check all
    // apply to the healed mesh.
    let opts = CoordinatorOptions::new("example1", wire_binary())
        .with_partition(NodeId::new(3), std::time::Duration::from_millis(1000));
    let summary = run_coordinator(&opts).expect("coordinated partition run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    assert_eq!(summary.total_sent, 10, "§4.4 law must hold across the healed partition");
    assert!(
        summary.deserters.is_empty(),
        "a healed partition must never surface a deserter: {:?}",
        summary.deserters
    );
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(summary.resolved, baseline.agreed.map(|e| e.index()));
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn resolver_killed_at_the_commit_point_fails_over() {
    // Node 2 is Example 1's max raiser, hence the elected §4.2
    // resolver. A commit-point crash kills it after it has collected
    // every ACK but before a single Commit reaches a peer: the
    // survivors hold the victim's exception only as a ghost entry and
    // must re-elect node 1, re-resolve over the full raised set, and
    // commit the same exception the dead resolver would have.
    let victim = NodeId::new(2);
    let opts = CoordinatorOptions::new("example1", wire_binary())
        .with_crash(victim, CrashMode::Exit)
        .at_commit_point();
    let summary = run_coordinator(&opts).expect("coordinated crash run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    assert_eq!(summary.deserters, vec![victim.index()]);
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(
        summary.resolved,
        baseline.agreed.map(|e| e.index()),
        "failover must commit the exception the dead resolver would have"
    );
}

#[test]
#[ignore = "forms a mesh of OS processes; scripts/check-tier2.sh runs it"]
fn zombie_resolver_resumed_after_reelection_cannot_split_the_decision() {
    // The stop-mode victim freezes *inside* its commit step, holding
    // unsent Commit messages. Long after the survivors have deserted
    // it, re-elected, and committed, SIGCONT wakes the zombie and its
    // stale Commits finally hit the wire — the survivors' deserter
    // fence must discard them, and the agreement check (which includes
    // the zombie's own report) must still see exactly one exception.
    let victim = NodeId::new(2);
    let opts = CoordinatorOptions::new("example1", wire_binary())
        .with_crash(victim, CrashMode::Stop)
        .at_commit_point()
        .resuming_after(std::time::Duration::from_millis(800));
    let summary = run_coordinator(&opts).expect("coordinated zombie run");
    assert!(summary.ok(), "failures: {:?}", summary.failures);
    assert_eq!(summary.deserters, vec![victim.index()]);
    let baseline = WireScenario::sim_baseline("example1").expect("sim oracle");
    assert_eq!(summary.resolved, baseline.agreed.map(|e| e.index()));
    // The zombie finished its drive loop and reported: its own handler
    // ran on the same exception (it committed locally before
    // freezing), so a split decision would have tripped the
    // agreement failure above.
    let zombie = summary
        .reports
        .iter()
        .find(|r| r.id == victim.index())
        .expect("resumed victim prints a report");
    assert!(
        zombie
            .handled
            .iter()
            .any(|(_, e)| Some(*e) == summary.resolved),
        "zombie handled {:?}, run resolved {:?}",
        zombie.handled,
        summary.resolved
    );
}

/// Forms no mesh: the coordinator refuses the spec before it binds a
/// socket or spawns a process, with one line and exit status 1 — `p + q`
/// used to wrap to 0 and panic, `n` used to be allocated for and abort.
#[test]
fn hostile_general_specs_are_refused_before_any_process_is_spawned() {
    for spec in ["general:4294967295,4294967295,1", "general:4294967295,1,1"] {
        let output = Command::new(wire_binary())
            .args(["--role", "coordinator", "--scenario", spec])
            .output()
            .expect("run caex-wire");
        let stderr = String::from_utf8_lossy(&output.stderr);
        assert_eq!(output.status.code(), Some(1), "{spec}: {stderr}");
        assert_eq!(stderr.lines().count(), 1, "{spec}: {stderr}");
        assert!(stderr.starts_with("caex-wire: general:"), "{spec}: {stderr}");
    }
}
