//! What a formed mesh costs while nothing happens: heartbeats and the
//! threads that carry them, and nothing else. An acceptor that polls
//! its listener, or a writer that wakes more often than its heartbeat
//! interval, shows up here as CPU time.
//!
//! `#[ignore]`d: it reads wall-clock CPU use over three seconds, which
//! a loaded test run distorts; `scripts/check-tier2.sh` runs it with
//! `-- --ignored`.

use caex_net::NodeId;
use caex_wire::{WireAddr, WireBound, WireConfig, WirePort};
use std::thread;
use std::time::{Duration, Instant};

/// CPU time of every live thread of this process, in nanoseconds: the
/// first field of each `/proc/self/task/*/schedstat`.
fn process_cpu_ns() -> u64 {
    std::fs::read_dir("/proc/self/task")
        .expect("procfs lists this process's threads")
        .filter_map(|task| std::fs::read_to_string(task.ok()?.path().join("schedstat")).ok())
        .filter_map(|line| line.split_whitespace().next()?.parse::<u64>().ok())
        .sum()
}

#[test]
#[ignore = "measures CPU over wall-clock seconds; scripts/check-tier2.sh runs it"]
fn an_idle_three_node_mesh_uses_under_ten_ms_of_cpu_per_second() {
    let any: WireAddr = "tcp://127.0.0.1:0".parse().expect("loopback wildcard");
    let bounds: Vec<WireBound> = (0..3)
        .map(|i| WireBound::bind(NodeId::new(i), &any, WireConfig::default()).expect("bind"))
        .collect();
    let addrs: Vec<WireAddr> = bounds.iter().map(|b| b.local_addr().clone()).collect();
    let ports: Vec<WirePort> = bounds
        .into_iter()
        .map(|b| b.connect(&addrs).expect("form mesh"))
        .collect();
    // Let formation settle: every link accepted, its reader started.
    thread::sleep(Duration::from_millis(200));

    // Three one-second windows; the quietest one is the mesh's own
    // cost, since anything else sharing the host only adds to a window.
    let windows: Vec<f64> = (0..3)
        .map(|_| {
            let (cpu_before, start) = (process_cpu_ns(), Instant::now());
            thread::sleep(Duration::from_secs(1));
            let cpu_ns = process_cpu_ns().saturating_sub(cpu_before);
            cpu_ns as f64 / 1e6 / start.elapsed().as_secs_f64()
        })
        .collect();
    let quietest = windows.iter().copied().fold(f64::INFINITY, f64::min);
    println!("idle 3-node mesh, ms of CPU per second in each window: {windows:.2?}");
    assert!(
        quietest < 10.0,
        "an idle mesh burns {quietest:.2} ms of CPU per second at best"
    );
    drop(ports);
}
