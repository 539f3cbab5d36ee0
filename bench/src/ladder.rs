//! The per-layer ladder's rungs that spans cannot reach: layers the
//! hosts never call directly (`ExceptionTree::resolve` runs inside
//! `Participant::handle`), or that sit off the untraced path
//! altogether (codec and frame on in-process workloads, observers
//! while the observer is `()`). Each is timed in isolation, from
//! outside, on the workload's own shape.

use crate::fleet::{build_instances, engine_config};
use crate::inputs::Inputs;
use crate::report::Measured;
use crate::stats::median;
use caex::shard::FleetEngine;
use caex::{codec, Msg};
use caex_load::{ArrivalSpec, LogHistogram};
use caex_obs::{MetricsRegistry, ObsEvent, Observer, Recorder, Watchdog};
use caex_tree::ExceptionId;
use caex_wire::frame::{decode_frame, encode_frame, Frame};
use std::hint::black_box;
use std::time::{Duration, Instant};

/// Times `f` (which performs `per_call` units of work): repeats it in
/// ~1 ms samples for `budget` and returns the median nanoseconds per
/// unit with the sample count.
pub fn time_ns(budget: Duration, per_call: usize, mut f: impl FnMut()) -> (f64, u64) {
    let probe = Instant::now();
    f();
    let once = probe.elapsed().max(Duration::from_nanos(20));
    #[allow(clippy::cast_possible_truncation, clippy::cast_sign_loss)]
    let inner = (1e-3 / once.as_secs_f64()).ceil().clamp(1.0, 1e6) as usize;
    let mut samples = Vec::new();
    let started = Instant::now();
    while samples.len() < 5 || started.elapsed() < budget {
        let t = Instant::now();
        for _ in 0..inner {
            f();
        }
        #[allow(clippy::cast_precision_loss)]
        samples.push(t.elapsed().as_nanos() as f64 / (inner * per_call) as f64);
    }
    (median(&samples), samples.len() as u64)
}

/// `tree.resolve_ns`: `ExceptionTree::resolve` over the workload's own
/// tree and seeded raised sets.
pub fn tree_resolve(inputs: &Inputs, seed: u64, budget: Duration, out: &mut Measured) {
    let sets: Vec<Vec<ExceptionId>> = (0..64).map(|i| inputs.raised_set(seed, 0, i)).collect();
    let (ns, samples) = time_ns(budget, sets.len(), || {
        for raised in &sets {
            black_box(
                inputs
                    .tree
                    .resolve(black_box(raised).iter().copied())
                    .expect("oracle"),
            );
        }
    });
    out.set("tree.resolve_ns", ns, samples);
}

/// `codec.*` and `frame.*` over the message mix of one operation.
pub fn codec_and_frame(mix: &[Msg], budget: Duration, out: &mut Measured) {
    let (ns, samples) = time_ns(budget, mix.len(), || {
        for m in mix {
            black_box(codec::encode(black_box(m)));
        }
    });
    out.set("codec.encode_ns", ns, samples);
    let encoded: Vec<_> = mix.iter().map(codec::encode).collect();
    let (ns, samples) = time_ns(budget, mix.len(), || {
        for b in &encoded {
            black_box(codec::decode(black_box(b)).expect("round trip"));
        }
    });
    out.set("codec.decode_ns", ns, samples);

    let frames: Vec<Frame> = mix
        .iter()
        .map(|m| Frame::Msg {
            from: m.sender(),
            sent_us: 1_000,
            msg: m.clone(),
        })
        .collect();
    let (ns, samples) = time_ns(budget, frames.len(), || {
        for f in &frames {
            black_box(encode_frame(black_box(f)));
        }
    });
    out.set("frame.encode_ns", ns, samples);
    let bytes: Vec<Vec<u8>> = frames.iter().map(encode_frame).collect();
    let (ns, samples) = time_ns(budget, bytes.len(), || {
        for b in &bytes {
            black_box(decode_frame(black_box(b)).expect("round trip"));
        }
    });
    out.set("frame.decode_ns", ns, samples);
    #[allow(clippy::cast_precision_loss)]
    let mean_bytes = bytes.iter().map(Vec::len).sum::<usize>() as f64 / bytes.len() as f64;
    out.set("frame.bytes_per_msg", mean_bytes, bytes.len() as u64);
}

/// `obs.*`: records the `ObsEvent` stream of `actions` operations of
/// the workload's shape (through the sim engine, the one host that
/// emits it) and replays it into each observer's `on_event`.
pub fn obs_emit(inputs: &Inputs, seed: u64, actions: usize, budget: Duration, out: &mut Measured) {
    // The recording always uses the fleet relocation, whatever the
    // workload's own host: observers see the shape, not the transport.
    let instances = build_instances(inputs, &inputs.fleet_batch(seed, 0, actions));
    let mut recorder = Recorder::new();
    let report = FleetEngine::new(engine_config(inputs.net_config(seed, 0), 1))
        .run_observed(instances, &mut recorder);
    assert_eq!(
        report.committed_count(),
        actions,
        "recording run commits everything"
    );
    let events: Vec<ObsEvent> = recorder.events;
    #[allow(clippy::cast_precision_loss)]
    out.set(
        "obs.events_per_action",
        events.len() as f64 / actions as f64,
        actions as u64,
    );

    fn replay<O: Observer>(
        name: &'static str,
        events: &[ObsEvent],
        budget: Duration,
        out: &mut Measured,
        mut fresh: impl FnMut() -> O,
    ) {
        let (ns, samples) = time_ns(budget, events.len(), || {
            let mut observer = fresh();
            for e in events {
                observer.on_event(black_box(e));
            }
            black_box(&observer);
        });
        out.set(name, ns, samples);
    }
    replay("obs.emit_ns.unit", &events, budget, out, || ());
    replay("obs.emit_ns.recorder", &events, budget, out, Recorder::new);
    replay("obs.emit_ns.metrics", &events, budget, out, || {
        MetricsRegistry::new().with_law(caex::analysis::messages_general)
    });
    replay("obs.emit_ns.watchdog", &events, budget, out, Watchdog::new);
}

/// `load.*`: the arrival generator and the histogram the saturation
/// study records into.
pub fn load_layer(seed: u64, budget: Duration, out: &mut Measured) {
    let spec = ArrivalSpec::Poisson {
        rate_per_sec: 6400.0,
    };
    let (ns, samples) = time_ns(budget, 10_000, || {
        black_box(spec.schedule(10_000, black_box(seed)));
    });
    out.set("load.schedule_ns_per_arrival", ns, samples);
    let values: Vec<u64> = (0..4096u64)
        .map(|i| crate::inputs::derive(seed, 9, i) % 50_000)
        .collect();
    let mut hist = LogHistogram::new();
    let (ns, samples) = time_ns(budget, values.len(), || {
        for v in &values {
            hist.record(black_box(*v));
        }
    });
    black_box(hist.count());
    out.set("load.hist_record_ns", ns, samples);
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn time_ns_grows_with_the_work_done() {
        let work = |k: u64| {
            move || {
                let mut acc = 0u64;
                for i in 0..k {
                    acc = acc.wrapping_add(black_box(i).wrapping_mul(31));
                }
                black_box(acc);
            }
        };
        let (small, n) = time_ns(Duration::from_millis(5), 1, work(1_000));
        let (large, _) = time_ns(Duration::from_millis(5), 1, work(20_000));
        assert!(n >= 5);
        assert!(
            large > 4.0 * small,
            "20x the iterations took {large} ns vs {small} ns"
        );
    }
}
