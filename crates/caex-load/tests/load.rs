//! Behavioural tests of the load generator: seeded reproducibility,
//! low-load cleanliness, burst arrivals, sharding speed-up in virtual
//! time, flame-stack collection under load, and the binary refusing
//! hostile flags.

use caex_load::arrivals::ArrivalSpec;
use caex_load::suite::{bench_pr10_json, run_load, Engine, LoadConfig};
use caex_net::SimTime;

fn low_load(engine: Engine) -> LoadConfig {
    LoadConfig {
        engine,
        arrivals: ArrivalSpec::parse("poisson:500").unwrap(),
        actions: 80,
        shards: 2,
        capacity: 2,
        deadline: Some(SimTime::from_millis(20)),
        seed: 42,
        collect_flame: false,
    }
}

#[test]
fn same_seed_regenerates_bit_identical_results() {
    let a = run_load(&low_load(Engine::Sim));
    let b = run_load(&low_load(Engine::Sim));
    assert_eq!(a.completed, b.completed);
    assert_eq!(a.makespan_us, b.makespan_us);
    assert_eq!(a.hist.p50(), b.hist.p50());
    assert_eq!(a.hist.p999(), b.hist.p999());
    assert_eq!(a.hist.sum(), b.hist.sum());
    // And a different seed genuinely reshuffles the arrival schedule.
    let mut other = low_load(Engine::Sim);
    other.seed = 43;
    assert_ne!(run_load(&other).makespan_us, a.makespan_us);
}

#[test]
fn low_load_commits_everything_on_time_with_the_law() {
    for engine in Engine::all() {
        let config = low_load(engine);
        let outcome = run_load(&config);
        assert_eq!(outcome.completed, config.actions, "{engine}: all commit");
        assert_eq!(outcome.deadline_misses, 0, "{engine}: no misses at low load");
        assert_eq!(outcome.deadlocked, 0, "{engine}: clean");
        if engine == Engine::Sim {
            assert_eq!(outcome.law_holds, Some(true), "§4.4 law under multiplexing");
            assert_eq!(outcome.messages_per_action, 24, "(N-1)(2P+3Q+1), N=4 P=2 Q=1");
        } else {
            assert_eq!(outcome.law_holds, None, "law is §4.2-specific");
        }
    }
}

/// `--assert-law` passes only on a verdict that holds: a missing one
/// fails as a violated one does.
#[test]
fn the_law_check_fails_without_a_verdict() {
    let config = low_load(Engine::Sim);
    let mut outcome = run_load(&config);
    assert_eq!(outcome.check_law(config.actions), Ok(()));
    outcome.law_holds = None;
    let missing = outcome.check_law(config.actions).unwrap_err();
    assert!(missing.contains("no §4.4 verdict"), "{missing}");
    outcome.law_holds = Some(false);
    let violated = outcome.check_law(config.actions).unwrap_err();
    assert!(violated.contains("violated"), "{violated}");
    let baseline = run_load(&low_load(Engine::Central));
    assert_eq!(baseline.law_holds, None);
    assert!(baseline.check_law(config.actions).is_err());
}

#[test]
fn burst_arrivals_queue_behind_capacity() {
    // 16 actions arriving simultaneously into one 2-slot shard must
    // serialize: eight waves of service, tail latency far above the
    // front's.
    let config = LoadConfig {
        engine: Engine::Sim,
        arrivals: ArrivalSpec::parse("burst:16@50").unwrap(),
        actions: 16,
        shards: 1,
        capacity: 2,
        deadline: Some(SimTime::from_millis(20)),
        seed: 1,
        collect_flame: false,
    };
    let outcome = run_load(&config);
    assert_eq!(outcome.completed, 16);
    assert_eq!(outcome.law_holds, Some(true));
    assert!(
        outcome.hist.max() >= 4 * outcome.hist.min().max(1),
        "burst tail ({} us) should dwarf the head ({} us)",
        outcome.hist.max(),
        outcome.hist.min()
    );
}

#[test]
fn more_shards_cut_the_saturated_makespan() {
    let mut config = low_load(Engine::Sim);
    config.arrivals = ArrivalSpec::parse("poisson:20000").unwrap();
    config.actions = 120;
    config.shards = 1;
    config.capacity = 2;
    let narrow = run_load(&config);
    config.shards = 4;
    let wide = run_load(&config);
    assert_eq!(narrow.completed, 120);
    assert_eq!(wide.completed, 120);
    assert!(
        wide.makespan_us < narrow.makespan_us,
        "4 shards ({} us) should beat 1 shard ({} us) under overload",
        wide.makespan_us,
        narrow.makespan_us
    );
    assert!(narrow.law_holds == Some(true) && wide.law_holds == Some(true));
}

#[test]
fn flame_collection_yields_per_fleet_folded_stacks() {
    let mut config = low_load(Engine::Sim);
    config.shards = 1;
    config.actions = 6;
    config.collect_flame = true;
    let outcome = run_load(&config);
    let folded = outcome.folded.expect("flame stacks collected");
    // Six instances on nodes 0..24: the first and last instance's
    // objects both appear, and every line is `stack count`.
    assert!(folded.contains("O0;"), "first instance present:\n{folded}");
    assert!(folded.contains("O20;"), "last instance present:\n{folded}");
    for line in folded.lines() {
        let (stack, count) = line.rsplit_once(' ').expect("folded format");
        assert!(!stack.is_empty());
        assert!(count.parse::<u64>().is_ok(), "bad count in `{line}`");
    }
}

#[test]
fn json_document_is_reproducible_across_processes() {
    // The full study is exercised by the pin test; here just check the
    // document builder is a pure function of its cells.
    let cells = caex_load::suite::bench_pr10_seeded(5);
    let a = bench_pr10_json(&cells).to_string();
    let b = bench_pr10_json(&caex_load::suite::bench_pr10_seeded(5)).to_string();
    assert_eq!(a, b);
}

/// The binary refuses `args` with exit status 1 and one `caex-load: …`
/// line on stderr — no panic, no result row.
fn refused(args: &[&str]) -> String {
    let output = std::process::Command::new(env!("CARGO_BIN_EXE_caex-load"))
        .args(args)
        .output()
        .expect("run caex-load");
    let stderr = String::from_utf8_lossy(&output.stderr).into_owned();
    assert_eq!(output.status.code(), Some(1), "{args:?}: {stderr}");
    assert!(output.stdout.is_empty(), "{args:?} printed a result");
    assert_eq!(stderr.lines().count(), 1, "{args:?}: {stderr}");
    assert!(stderr.starts_with("caex-load: "), "{args:?}: {stderr}");
    stderr
}

#[test]
fn zero_counts_are_refused_not_panicked_on() {
    for flag in ["--actions", "--capacity", "--workers"] {
        assert!(refused(&["run", flag, "0"]).contains("must be at least 1"));
    }
}

#[test]
fn unknown_flags_are_refused_with_the_known_ones_listed() {
    let run = refused(&["run", "--rate", "5"]);
    assert!(run.contains("unknown flag --rate") && run.contains("--arrivals"), "{run}");
    let saturation = refused(&["saturation", "--bogus", "1"]);
    assert!(saturation.contains("unknown flag --bogus") && saturation.contains("--out"));
}

#[test]
fn hostile_burst_gaps_are_refused_or_scheduled_without_overflow() {
    // A gap whose microseconds overflow a `u64` is an error, not a
    // wrapped gap or a panic; the binary reports it on one line.
    let err = ArrivalSpec::parse("burst:1@18446744073709551615").unwrap_err();
    assert!(err.contains("does not fit"), "{err}");
    refused(&["run", "--arrivals", "burst:1@18446744073709551615"]);
    // A gap that fits parses, and its schedule saturates at the end of
    // time instead of overflowing.
    let far = ArrivalSpec::parse("burst:1@10000000000000").unwrap();
    let times = far.schedule(2000, 0);
    assert_eq!(times[1], SimTime::from_millis(10_000_000_000_000));
    assert!(times.windows(2).all(|w| w[0] <= w[1]), "sorted");
    assert_eq!(times[1999], SimTime::from_micros(u64::MAX));
    // The binary refuses to run such a schedule, and a deadline whose
    // microseconds do not fit.
    let run = refused(&["run", "--arrivals", "burst:1@10000000000000", "--actions", "2000"]);
    assert!(run.contains("past the end of virtual time"), "{run}");
    refused(&["run", "--deadline-ms", "18446744073709551615"]);
    // One that fits in microseconds but not beside an arrival.
    let late = refused(&["run", "--deadline-ms", "18446744073709551", "--actions", "5"]);
    assert!(late.contains("--deadline-ms is too long"), "{late}");
}
