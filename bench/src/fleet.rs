//! The fleet workloads: batches of §4.4 action instances through a
//! one-shard, capacity-8 `FleetEngine`, and — for the traced pass —
//! the same instances through a minimal single-threaded host built
//! from the public `Participant` and `SimNet` calls, with a span
//! around each.

use crate::checks::{check, Observed, Tally};
use crate::inputs::{Inputs, Plan};
use crate::report::Measured;
use crate::stats::{median, percentile, quiet_half};
use crate::trace::{LayerTotals, Off, SpanLog, Tracer};
use crate::{ladder, sys, RunOpts};
use caex::shard::{ActionInstance, FleetConfig, FleetEngine, FleetReport};
use caex::{analysis, Effect, Event, Msg, NestedStrategy, Note, Participant};
use caex_net::{NetConfig, SimNet, SimTime};
use caex_tree::ExceptionId;
use std::collections::VecDeque;
use std::sync::Arc;
use std::time::Instant;

/// Concurrent admission slots of the shard (the BENCH_PR10 setting).
pub const CAPACITY: usize = 8;

/// Offsets `workloads::general_at` scripts nested entry and raises at;
/// the balanced-tree fleet uses the same.
fn nested_at() -> SimTime {
    SimTime::from_micros(1)
}
fn raise_at() -> SimTime {
    SimTime::from_micros(2)
}

/// The engine configuration of one batch.
#[must_use]
pub fn engine_config(net: NetConfig, shards: usize) -> FleetConfig {
    FleetConfig {
        shards,
        capacity: CAPACITY,
        net,
        law: Some(analysis::messages_general),
        ..FleetConfig::default()
    }
}

/// One batch through `FleetEngine::run`, timed from outside.
#[derive(Debug)]
pub struct EngineBatch {
    /// Wall time of building the `ActionInstance`s from the plans.
    pub build_ns: u64,
    /// Wall time of `FleetEngine::run`.
    pub run_ns: u64,
    /// What the engine reported.
    pub report: FleetReport,
}

/// Builds the plans' `ActionInstance`s (the instance-build layer).
#[must_use]
pub fn build_instances(inputs: &Inputs, plans: &[Plan]) -> Vec<ActionInstance> {
    plans
        .iter()
        .map(|plan| {
            ActionInstance::from_scenario(
                inputs.scenario(plan, nested_at(), raise_at()),
                plan.arrival,
            )
        })
        .collect()
}

/// Builds the batch's instances and runs them; the two phases are
/// timed separately.
#[must_use]
pub fn run_engine_batch(inputs: &Inputs, plans: &[Plan], config: FleetConfig) -> EngineBatch {
    let engine = FleetEngine::new(config);
    let t0 = Instant::now();
    let instances = build_instances(inputs, plans);
    let t1 = Instant::now();
    let report = engine.run(instances);
    let t2 = Instant::now();
    EngineBatch {
        build_ns: ns(t1 - t0),
        run_ns: ns(t2 - t1),
        report,
    }
}

fn ns(d: std::time::Duration) -> u64 {
    u64::try_from(d.as_nanos()).unwrap_or(u64::MAX)
}

/// Checks every instance of an engine batch against the oracle and
/// the law. A shard that deadlocked or hit its delivery cap fails its
/// unfinished instances through their missing completion.
#[must_use]
pub fn check_engine_batch(inputs: &Inputs, plans: &[Plan], report: &FleetReport) -> Tally {
    let mut tally = Tally::default();
    for (plan, outcome) in plans.iter().zip(&report.outcomes) {
        let seen = Observed {
            completed: outcome.committed.is_some()
                && outcome.finished.is_some()
                && outcome.law_holds != Some(false),
            resolved: outcome.resolved.as_ref().map(caex_tree::Exception::id),
            handled: None,
            messages: outcome.messages,
        };
        tally.record(
            inputs.w.name,
            outcome.instance as u64,
            check(&inputs.expected(&plan.raised), &seen),
        );
    }
    tally
}

/// What the minimal host saw each instance do.
#[derive(Debug, Default)]
pub struct HostReport {
    /// Per instance, in plan order.
    pub seen: Vec<Observed>,
}

struct Live {
    handlers_open: u32,
    seen: Observed,
}

/// The spans a `Participant::handle` call can be recorded under, each
/// with the per-layer metric its mean duration is reported as.
pub const HANDLES: [(&str, &str); 6] = [
    (
        "participant.handle.exception",
        "participant.handle_ns.exception",
    ),
    ("participant.handle.ack", "participant.handle_ns.ack"),
    ("participant.handle.commit", "participant.handle_ns.commit"),
    (
        "participant.handle.have_nested",
        "participant.handle_ns.have_nested",
    ),
    (
        "participant.handle.nested_completed",
        "participant.handle_ns.nested_completed",
    ),
    ("participant.handle.local", "participant.handle_ns.local"),
];

/// Span name of one `Participant::handle` call, by event kind.
#[must_use]
pub fn handle_span(event: &Event) -> &'static str {
    let kind = match event {
        Event::Msg(Msg::Exception { .. }) => 0,
        Event::Msg(Msg::Ack { .. }) => 1,
        Event::Msg(Msg::Commit { .. }) => 2,
        Event::Msg(Msg::HaveNested { .. }) => 3,
        Event::Msg(Msg::NestedCompleted { .. }) => 4,
        _ => 5,
    };
    HANDLES[kind].0
}

/// Runs `plans` through a minimal single-threaded host: one `SimNet`,
/// fresh `Participant`s at admission, `capacity` admission slots in
/// arrival order — the event loop of a `FleetEngine` shard without its
/// observability bridge, metrics registry or per-shard maps. Each call
/// into `Participant` or `SimNet` is bracketed by a span on `tr`;
/// `on_send` sees every protocol message (the message mix).
///
/// # Panics
///
/// Panics if a plan is not relocated densely (`node_base = i·n`,
/// `action_base = i·(q+1)`) or a scenario asks for a synchronized
/// leave, which these workloads never script.
pub fn run_host<T: Tracer>(
    inputs: &Inputs,
    plans: &[Plan],
    net: NetConfig,
    tr: &mut T,
    mut on_send: impl FnMut(&Msg),
) -> HostReport {
    let w = inputs.w;
    let n = w.n as usize;
    let per_op = w.actions_per_op();
    let scripts: Vec<_> = plans
        .iter()
        .enumerate()
        .map(|(i, plan)| {
            assert_eq!(plan.node_base as usize, i * n, "dense node relocation");
            assert_eq!(
                plan.action_base,
                i as u32 * per_op,
                "dense action relocation"
            );
            inputs.scenario(plan, nested_at(), raise_at()).into_script()
        })
        .collect();

    let root = tr.begin("host.run", u64::MAX);
    let s = tr.begin("simnet.new", u64::MAX);
    let mut sim: SimNet<Event> = SimNet::new(net, u32::try_from(plans.len() * n).expect("nodes"));
    tr.end(s);
    let mut participants: Vec<Option<Participant>> = (0..plans.len() * n).map(|_| None).collect();
    let mut live: Vec<Live> = (0..plans.len())
        .map(|_| Live {
            handlers_open: 0,
            seen: Observed {
                handled: Some(Vec::with_capacity(n)),
                ..Observed::default()
            },
        })
        .collect();
    let mut pending: VecDeque<usize> = (0..plans.len()).collect();
    let mut active = 0usize;

    macro_rules! admit_ready {
        () => {
            while active < CAPACITY {
                let Some(i) = pending.pop_front() else { break };
                let (registry, steps, _handlers) = &scripts[i];
                let start = plans[i].arrival.max(sim.now());
                for node in i * n..(i + 1) * n {
                    let s = tr.begin("participant.new", i as u64);
                    let p = Participant::new(
                        caex_net::NodeId::new(node as u32),
                        Arc::clone(registry),
                        NestedStrategy::Abort,
                    );
                    tr.end(s);
                    participants[node] = Some(p);
                }
                for (offset, object, event) in steps {
                    let s = tr.begin("simnet.schedule_local", i as u64);
                    sim.schedule_local(start + *offset, *object, event.clone());
                    tr.end(s);
                }
                active += 1;
            }
        };
    }
    admit_ready!();

    loop {
        let s = tr.begin("simnet.deliver", u64::MAX);
        let delivery = sim.next_delivery();
        tr.end(s);
        let Some(delivery) = delivery else { break };
        let node = delivery.to.index() as usize;
        let i = node / n;
        let is_handler_done = matches!(delivery.payload, Event::HandlerDone { .. });
        let participant = participants[node]
            .as_mut()
            .expect("delivery to admitted object");
        let s = tr.begin(handle_span(&delivery.payload), i as u64);
        let effects = participant.handle(delivery.payload);
        tr.end(s);
        if is_handler_done {
            live[i].handlers_open = live[i].handlers_open.saturating_sub(1);
        }
        for effect in effects {
            match effect {
                Effect::Send { to, msg } => {
                    on_send(&msg);
                    let s = tr.begin("simnet.send", i as u64);
                    sim.send(delivery.to, to, Event::Msg(msg));
                    tr.end(s);
                }
                Effect::After { delay, event } => {
                    let s = tr.begin("simnet.schedule_local", i as u64);
                    sim.schedule_local_in(delay, delivery.to, event);
                    tr.end(s);
                }
                Effect::Note(Note::ResolutionCommitted {
                    action, resolved, ..
                }) => {
                    let slot = &mut live[(action.index() / per_op) as usize];
                    if slot.seen.resolved.is_none() {
                        slot.seen.resolved = Some(resolved.id());
                    }
                }
                Effect::Note(Note::HandlerStarted { action, exc, .. }) => {
                    let slot = &mut live[(action.index() / per_op) as usize];
                    slot.handlers_open += 1;
                    if action.index() % per_op == 0 {
                        slot.seen
                            .handled
                            .as_mut()
                            .expect("host sees handlers")
                            .push(exc.id());
                    }
                }
                Effect::Note(Note::LeaveRequested { .. }) => {
                    panic!("benchmark workloads never script a synchronized leave")
                }
                Effect::Note(_) => {}
            }
        }
        let slot = &mut live[i];
        if !slot.seen.completed
            && slot.seen.resolved.is_some()
            && slot.handlers_open == 0
            && participants[i * n..(i + 1) * n]
                .iter()
                .all(|p| p.as_ref().is_none_or(Participant::is_normal))
        {
            slot.seen.completed = true;
            active -= 1;
            admit_ready!();
        }
    }
    tr.end(root);

    let seen = live
        .into_iter()
        .zip(plans)
        .map(|(mut slot, plan)| {
            slot.seen.messages = (plan.action_base..plan.action_base + per_op)
                .map(|a| sim.stats().action_counters(a).sent)
                .sum();
            slot.seen
        })
        .collect();
    HostReport { seen }
}

/// Checks a host batch like an engine batch (plus handler count and
/// agreement, which the host can see), and that it agrees with what
/// the engine reported for the same instances: same committed
/// exception, same message count. A host that diverges from the
/// engine is a wrong answer.
#[must_use]
pub fn check_host_batch(
    inputs: &Inputs,
    plans: &[Plan],
    host: &HostReport,
    engine: &FleetReport,
) -> Tally {
    let mut tally = Tally::default();
    for ((plan, seen), outcome) in plans.iter().zip(&host.seen).zip(&engine.outcomes) {
        let engine_resolved: Option<ExceptionId> =
            outcome.resolved.as_ref().map(caex_tree::Exception::id);
        let result = check(&inputs.expected(&plan.raised), seen).and_then(|()| {
            if seen.resolved == engine_resolved && seen.messages == outcome.messages {
                Ok(())
            } else {
                Err(crate::checks::Failure::Disagreement)
            }
        });
        tally.record("host", outcome.instance as u64, result);
    }
    tally
}

/// The protocol messages of one operation of the workload's shape, in
/// send order — by construction the law-weighted message mix.
#[must_use]
pub fn message_mix(inputs: &Inputs, plan: Plan, seed: u64) -> Vec<Msg> {
    let mut mix = Vec::new();
    let report = run_host(inputs, &[plan], inputs.net_config(seed, 0), &mut Off, |m| {
        mix.push(m.clone());
    });
    assert_eq!(
        mix.len() as u64,
        inputs.w.law_messages(),
        "mix obeys the law"
    );
    assert!(report.seen[0].completed);
    mix
}

/// Instances per batch under `opts` (a twentieth in smoke runs).
fn batch_size(inputs: &Inputs, opts: &RunOpts) -> usize {
    if opts.smoke {
        (inputs.w.batch / 20).max(CAPACITY)
    } else {
        inputs.w.batch
    }
}

/// Batch stream indices of warm-up batches: far from the measured
/// batches `0, 1, 2, …`, so no measured batch repeats warm-up inputs.
const WARMUP_STREAM: u64 = u64::MAX;

/// Discarded warm-up batches per set-up.
const WARMUP_BATCHES: u64 = 4;

/// One set-up: the workload's tree and the discarded warm-up batches
/// (allocator and page-fault warm-up; the engine itself is stateless).
fn set_up(w: &'static crate::inputs::Workload, opts: &RunOpts, k: u64) -> Inputs {
    let inputs = Inputs::new(w);
    for b in 0..WARMUP_BATCHES {
        let stream = WARMUP_STREAM - (k * WARMUP_BATCHES + b);
        let plans = inputs.fleet_batch(opts.seed, stream, batch_size(&inputs, opts));
        let config = engine_config(inputs.net_config(opts.seed, stream), 1);
        let warm = run_engine_batch(&inputs, &plans, config);
        assert_eq!(
            warm.report.committed_count(),
            plans.len(),
            "warm-up batch commits"
        );
    }
    inputs
}

#[allow(clippy::cast_precision_loss)]
fn per_action(total_ns: u64, actions: usize) -> f64 {
    total_ns as f64 / actions as f64
}

/// The untraced run: the end-to-end metrics.
///
/// A batch is one sample of each timing. The timings are summarised
/// over the **quiet half** of the batches (see
/// [`crate::stats::quiet_half`]): on a shared host a neighbour's burst
/// slows a third of a run's batches by 20–40 %, and it only ever slows
/// them.
#[must_use]
pub fn run_untraced(w: &'static crate::inputs::Workload, opts: &RunOpts) -> (Tally, Measured) {
    let mut setups = Vec::new();
    let mut inputs = None;
    for k in 0..opts.setups() {
        let t = Instant::now();
        inputs = Some(set_up(w, opts, k));
        setups.push(t.elapsed().as_secs_f64());
    }
    let inputs = inputs.expect("at least one set-up");
    let size = batch_size(&inputs, opts);

    let mut tally = Tally::default();
    let (mut throughput, mut resolve_us, mut cpu_ms) = (Vec::new(), Vec::new(), Vec::new());
    let mut sent = 0u64;
    let window = Instant::now();
    let mut batch = 0u64;
    while batch < 4 || window.elapsed().as_secs_f64() < opts.seconds {
        let plans = inputs.fleet_batch(opts.seed, batch, size);
        let cpu0 = sys::cpu_seconds();
        let done = run_engine_batch(
            &inputs,
            &plans,
            engine_config(inputs.net_config(opts.seed, batch), 1),
        );
        cpu_ms.push((sys::cpu_seconds() - cpu0) * 1e3 / size as f64);
        throughput.push(size as f64 * 1e9 / (done.build_ns + done.run_ns) as f64);
        resolve_us.push(per_action(done.run_ns, size) / 1e3);
        sent += done.report.stats.sent_total();
        tally.merge(check_engine_batch(&inputs, &plans, &done.report));
        batch += 1;
    }

    let mut m = Measured::default();
    let quiet_resolve = quiet_half(&resolve_us, false);
    let n = quiet_resolve.len() as u64;
    m.set("actions_per_s", median(&quiet_half(&throughput, true)), n);
    m.set("resolve_p50_us", median(&quiet_resolve), n);
    m.set("resolve_p90_us", percentile(&quiet_resolve, 0.9), n);
    m.set(
        "msgs_per_action",
        sent as f64 / tally.attempted as f64,
        tally.attempted,
    );
    m.set("cpu_ms_per_action", median(&quiet_half(&cpu_ms, false)), n);
    m.set("peak_rss_mb", sys::peak_rss_mb(), 1);
    m.set("setup_s", median(&setups), setups.len() as u64);
    (tally, m)
}

/// The traced run: the per-layer metrics, the fleet reconciliation
/// and the trace file.
#[must_use]
pub fn run_traced(w: &'static crate::inputs::Workload, opts: &RunOpts) -> (Tally, Measured) {
    let inputs = set_up(w, opts, 0);
    let size = batch_size(&inputs, opts);
    let mut tally = Tally::default();
    let mut totals = LayerTotals::calibrated();
    let mut sample_log: Option<SpanLog> = None;
    let (mut build, mut run, mut host_off, mut host_on) =
        (Vec::new(), Vec::new(), Vec::new(), Vec::new());
    let mut host_actions = 0usize;
    let mut sim_latencies: Vec<f64> = Vec::new();

    // A quarter of the untraced run's operations: per-operation
    // figures are compared, so the traced pass can be shorter.
    let window = Instant::now();
    let mut engine_s = 0.0;
    let mut batch = 0u64;
    while batch < 2 || engine_s < opts.seconds / 4.0 {
        let plans = inputs.fleet_batch(opts.seed, batch, size);
        let net = || inputs.net_config(opts.seed, batch);
        let done = run_engine_batch(&inputs, &plans, engine_config(net(), 1));
        engine_s += (done.build_ns + done.run_ns) as f64 / 1e9;
        build.push(per_action(done.build_ns, size));
        run.push(per_action(done.run_ns, size));
        tally.merge(check_engine_batch(&inputs, &plans, &done.report));
        if batch == 0 {
            sim_latencies = done
                .report
                .latencies_us()
                .into_iter()
                .map(|us| us as f64)
                .collect();
        }

        let t = Instant::now();
        let plain = run_host(&inputs, &plans, net(), &mut Off, |_| {});
        host_off.push(per_action(ns(t.elapsed()), size));
        tally.merge(check_host_batch(&inputs, &plans, &plain, &done.report));

        let mut log = SpanLog::new(window);
        let t = Instant::now();
        let traced = run_host(&inputs, &plans, net(), &mut log, |_| {});
        host_on.push(per_action(ns(t.elapsed()), size));
        tally.merge(check_host_batch(&inputs, &plans, &traced, &done.report));
        totals.add(&log);
        host_actions += size;
        sample_log.get_or_insert(log);
        batch += 1;
    }

    // Diagnostic only: two shards on a two-core host that also runs
    // the benchmark itself; too noisy to be an end-to-end metric.
    let (mut one, mut two) = (Vec::new(), Vec::new());
    for k in 0..opts.setups() {
        let plans = inputs.fleet_batch(opts.seed, batch + k, size);
        let net = || inputs.net_config(opts.seed, batch + k);
        one.push(run_engine_batch(&inputs, &plans, engine_config(net(), 1)).run_ns as f64);
        two.push(run_engine_batch(&inputs, &plans, engine_config(net(), 2)).run_ns as f64);
    }

    let mut m = Measured::default();
    let batches = run.len() as u64;
    // Wall-clock figures over the quiet half, as in the untraced run.
    let quiet = |samples: &[f64]| median(&quiet_half(samples, false));
    let run_ns = quiet(&run);
    m.set("shard.instance_build_ns", quiet(&build), batches);
    m.set("shard.run_ns_per_action", run_ns, batches);
    m.set(
        "shard.run_ns_per_msg",
        run_ns / w.law_messages() as f64,
        batches,
    );
    m.set(
        "shard.two_shard_speedup",
        quiet(&one) / quiet(&two),
        one.len() as u64,
    );
    m.set(
        "sim.resolve_p50_us",
        median(&sim_latencies),
        sim_latencies.len() as u64,
    );
    m.set(
        "trace.overhead_share",
        quiet(&host_on) / quiet(&host_off) - 1.0,
        batches,
    );
    m.set("failed_share", tally.failed_share(), tally.attempted);

    // The reconciliation: what the public layer calls cost per action
    // (mean span × calls per action), against what the engine's `run`
    // costs per action. The residual is everything a shard does that
    // is not a call into `Participant` or `SimNet`: the observability
    // bridge, the metrics registry, its per-shard maps, outcome
    // assembly.
    let mut layer_ns_per_action = 0.0;
    let mut handles = 0u64;
    let per_action_of =
        |name: &str| totals.mean_ns(name) * totals.get(name).count as f64 / host_actions as f64;
    for (span, metric) in HANDLES {
        let count = totals.get(span).count;
        handles += count;
        layer_ns_per_action += per_action_of(span);
        m.set(metric, totals.mean_ns(span), count);
    }
    m.set(
        "participant.handles_per_action",
        handles as f64 / host_actions as f64,
        handles,
    );
    for (metric, span) in [
        ("participant.new_ns", "participant.new"),
        ("simnet.send_ns", "simnet.send"),
        ("simnet.deliver_ns", "simnet.deliver"),
        ("simnet.schedule_local_ns", "simnet.schedule_local"),
    ] {
        layer_ns_per_action += per_action_of(span);
        m.set(metric, totals.mean_ns(span), totals.get(span).count);
    }
    m.set(
        "shard.residual_share",
        (run_ns - layer_ns_per_action) / run_ns,
        batches,
    );
    eprintln!(
        "reconciliation: layer calls add up to {layer_ns_per_action:.0} ns/action of the engine's \
         {run_ns:.0} ns/action; residual share {:.3}",
        (run_ns - layer_ns_per_action) / run_ns
    );

    let budget = opts.rung_budget();
    let mix = message_mix(
        &inputs,
        inputs.fleet_batch(opts.seed, 0, 1).remove(0),
        opts.seed,
    );
    ladder::tree_resolve(&inputs, opts.seed, budget, &mut m);
    ladder::codec_and_frame(&mix, budget, &mut m);
    ladder::obs_emit(&inputs, opts.seed, size.min(200), budget, &mut m);
    ladder::load_layer(opts.seed, budget, &mut m);

    let log = sample_log.expect("at least one traced batch");
    opts.write_trace(
        w.name,
        &crate::trace::trace_json(w.name, opts.seed, &totals, &log),
    );
    (tally, m)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::inputs::workload;
    use caex_net::Kinded;

    fn mix_counts(mix: &[Msg]) -> Vec<(&'static str, u64)> {
        let mut counts: Vec<(&'static str, u64)> = Vec::new();
        for m in mix {
            match counts.iter_mut().find(|(k, _)| *k == m.kind()) {
                Some((_, c)) => *c += 1,
                None => counts.push((m.kind(), 1)),
            }
        }
        counts
    }

    #[test]
    fn host_and_engine_agree_and_obey_the_law_on_both_fleets() {
        for name in ["fleet_small", "fleet_wide"] {
            let inputs = Inputs::new(workload(name).unwrap());
            let plans = inputs.fleet_batch(11, 0, 40);
            let engine =
                run_engine_batch(&inputs, &plans, engine_config(inputs.net_config(11, 0), 1));
            let checked = check_engine_batch(&inputs, &plans, &engine.report);
            assert_eq!(
                (checked.attempted, checked.failed),
                (40, 0),
                "{name} engine"
            );
            let host = run_host(&inputs, &plans, inputs.net_config(11, 0), &mut Off, |_| {});
            let agreed = check_host_batch(&inputs, &plans, &host, &engine.report);
            assert_eq!((agreed.attempted, agreed.failed), (40, 0), "{name} host");
        }
    }

    #[test]
    fn same_seed_repeats_message_counts_and_virtual_latency_exactly() {
        let inputs = Inputs::new(workload("fleet_wide").unwrap());
        let run = |seed| {
            let plans = inputs.fleet_batch(seed, 0, 30);
            let b = run_engine_batch(
                &inputs,
                &plans,
                engine_config(inputs.net_config(seed, 0), 1),
            );
            let commits: Vec<_> = b.report.outcomes.iter().map(|o| o.committed).collect();
            (
                b.report.stats.sent_total(),
                b.report.latencies_us(),
                commits,
            )
        };
        assert_eq!(run(3), run(3));
        assert_eq!(run(3).0, 30 * 435);
        assert_ne!(
            run(3).2,
            run(4).2,
            "another seed moves the arrivals, so the commits"
        );
    }

    #[test]
    fn traced_host_spans_cover_every_layer_call() {
        let inputs = Inputs::new(workload("fleet_small").unwrap());
        let plans = inputs.fleet_batch(5, 0, 10);
        let mut log = SpanLog::new(Instant::now());
        let host = run_host(&inputs, &plans, inputs.net_config(5, 0), &mut log, |_| {});
        assert!(host.seen.iter().all(|seen| seen.completed));
        let mut totals = LayerTotals::default();
        totals.add(&log);
        assert_eq!(totals.get("simnet.send").count, 10 * 24);
        assert_eq!(totals.get("participant.new").count, 10 * 4);
        let handles: u64 = HANDLES.iter().map(|(span, _)| totals.get(span).count).sum();
        // Every delivery is handled; the last poll finds the net quiet.
        assert_eq!(totals.get("simnet.deliver").count, handles + 1);
        assert_eq!(totals.get("host.run").count, 1);
    }

    #[test]
    fn message_mix_is_the_law_weighted_mix() {
        let inputs = Inputs::new(workload("mesh_wire").unwrap());
        let mix = message_mix(&inputs, inputs.mesh_round(1, 0), 1);
        let counts = mix_counts(&mix);
        let of = |k: &str| counts.iter().find(|(n, _)| *n == k).map_or(0, |(_, c)| *c);
        // (N−1)·P exceptions, (N−1)·Q have_nested and nested_completed,
        // one ack per exception and nested_completed, (N−1) commits.
        assert_eq!(of("exception"), 4);
        assert_eq!(of("have_nested"), 2);
        assert_eq!(of("nested_completed"), 2);
        assert_eq!(of("ack"), 6);
        assert_eq!(of("commit"), 2);
    }
}
