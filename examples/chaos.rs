//! Chaos run: the resolution protocol under a hostile network —
//! congestion windows, a transient partition and duplicated messages,
//! all at once — visualised as a sequence chart.
//!
//! The algorithm assumes reliable FIFO channels (§4.2). Slowdowns and
//! duplicates stay within that assumption (just a bad network), so the
//! protocol must still resolve correctly; the partition breaks the
//! assumption for a window and the protocol must *stall safely* until
//! it heals — here the raise happens after healing, so the run
//! completes.
//!
//! Run with: `cargo run --example chaos`

use caex::explore::{verify_report, Expect};
use caex::workloads;
use caex_net::{FaultPlan, LatencyModel, NetConfig, NodeId, SimTime};
use caex_obs::{text, Recorder};

fn main() {
    let faults = FaultPlan::none()
        // Congestion: the first 300µs run 3x slow.
        .with_slowdown(3, SimTime::ZERO, SimTime::from_micros(300))
        // A partition covers the network until shortly before the
        // exceptions fire.
        .with_partition(
            [NodeId::new(0), NodeId::new(1)],
            SimTime::ZERO,
            SimTime::from_micros(1),
        )
        // And 20% of messages are delivered twice.
        .with_duplicate_probability(0.2);

    let config = NetConfig::default()
        .with_latency(LatencyModel::Uniform {
            min: SimTime::from_micros(60),
            max: SimTime::from_micros(220),
        })
        .with_seed(1996)
        .with_faults(faults);

    let mut recorder = Recorder::new();
    let report = workloads::general(5, 2, 1, config)
        .scenario
        .run_observed(&mut recorder);

    println!("=== Chaos run: N=5, P=2 raisers, Q=1 nested ===\n");
    print!("{}", text::sequence_chart(&recorder.events));

    println!(
        "\nduplicated deliveries absorbed as stale: {}",
        report.stale_messages()
    );
    println!(
        "resolution: {} resolved {} exception(s) at {}",
        report.resolutions[0].resolver,
        report.resolutions[0].raised.len(),
        report.resolutions[0].at
    );

    let violations = verify_report(&report, Expect::Clean, 1996);
    assert!(violations.is_empty(), "{violations:?}");
    println!(
        "\nOK: all invariants hold under congestion + duplication \
         ({} messages, {} deliveries).",
        report.stats.sent_total(),
        report.stats.delivered_total()
    );
}
