#!/usr/bin/env bash
# Tier-2 checks, beyond `cargo build --release && cargo test -q`:
#
# 1. caex-lint statically analyses every built-in workload family and
#    exits nonzero on deny-level findings; the API docs build with no
#    broken or private intra-doc link; the deleted modules, shim and
#    options stay gone (the wire mesh's per-link `Sender<Frame>`
#    channels among them), detector reports reach a `Participant`
#    only through `handle`/`handle_into`, the §4.2 effect dispatch
#    exists once (`caex::route`; the producer `participant.rs`,
#    `effect.rs` and `ObsBridge`'s read-only walk in `obs.rs` are
#    exempt), `Machine::step` sees an `Outbox`, never a `SimNet`,
#    `NetStats` keeps no map keyed by a channel `(NodeId, NodeId)`,
#    the fleet shard takes its §4.4 verdict from its own counts, not
#    from a private `MetricsRegistry`, the exception tree stays a
#    flat table (no `HashMap`, no `Vec<Vec<` in `caex-tree`'s
#    `tree.rs`), a `Participant`'s action records stay one sorted
#    `Vec` (no `IdMap<ActionId, ActionRec>` in `participant.rs`) and an
#    `Exception` keeps its texts in one string (at most one `Arc<str>`
#    field in its struct);
# 2. the observability battery runs the invariant watchdog and the live
#    §4.4 message-law checks over every built-in workload on the real
#    engines, and the three examples that render the obs stream as text
#    run to their own assertions (tier-1 only compiles them);
# 3. the tables binary regenerates TABLES.md and BENCH_PR2.json,
#    validating the bench document (laws + watchdog) before writing it;
# 4. the checked-in BENCH_PR2.json is pinned against a live
#    regeneration, so a stale document fails the build;
# 5. the one serialiser survives its fuzz battery, release mode: the
#    frame properties and the pinned bytes (`frame_props`), and byte
#    soup straight into `caex::codec::decode`, the layer a frame's CRC
#    does not shield (the `codec_` properties of `caex`'s `proptests`);
# 6. a real multi-process smoke run: one OS process per participant
#    over loopback TCP, held to the §4.4 count and the §4.5 watchdog,
#    plus a crash run that must surface the victim as a deserter, and
#    the process-mesh tests tier-1 skips as `#[ignore]`
#    (`caex-wire/tests/multiprocess.rs`), and the idle cost of a formed
#    3-node mesh, under 10 ms of CPU per second
#    (`caex-wire/tests/idle_cpu.rs`, also `#[ignore]`d);
# 7. the model checker exhaustively verifies every small built-in
#    family (CAEX015-CAEX018), sweeps resolver crashes through the
#    paper's Examples 1 and 2, cross-checks each verdict against the
#    dynamic seed sweep, and pins the CAEX019 domino analysis against
#    an executed Campbell-Randell baseline; exits nonzero on any
#    violation, unconfirmed counterexample, or disagreement, or when
#    Example 2's state, transition or crash-point count moves;
# 8. the causal analysis end-to-end: BENCH_PR7.json is pinned against a
#    live regeneration, caex-report's critical-path table on a recorded
#    sim Example 2 matches the pinned numbers, and a real multi-process
#    wire run's skew-stitched trace passes the happens-before `--check`
#    invariants (acyclic, every receive matched, phase sums exact);
# 9. resolver failover and the simulator host's safety net: the
#    release-mode crash-grid battery (every role killed at every
#    protocol step of Examples 1/2, plus the random (n,p,q) proptest
#    and the thread engine), the two-front-ends-one-host equivalence
#    suite (`shard`: K=1 fleet == `Scenario::run`, obs stream included)
#    with the algorithm and property suites that exercise the host's
#    step, the allocation budget of a fleet action (`alloc_budget`),
#    the heap budgets of a fleet instance (`heap_budget`: a shard
#    holds the instances it runs, not its batch; `instance_budget`:
#    the bytes and allocations of one queued instance and of its
#    tree) and the size bounds of what every message is moved through
#    (`type_sizes`: `Exception`, `Msg`, `Event`, `Effect`, `Note`),
#    the baselines on the same host (`baseline_streams`:
#    their pinned streams; `stream_vs_stats`: every stream against the
#    net counters, faults included; `causal`: the critical paths), the
#    port hosts' side of "one script, admitted
#    one way" (`extensions`: threaded distributed completion;
#    `cross_host`: Example 2 over Unix sockets is the simulator's
#    Example 2; `fixtures`: the script lints), `caex-net`'s unit and
#    property tests in the benchmark's build profile (the event queue's
#    total order, per-channel FIFO with and without the clamp, checked
#    `SimTime` arithmetic), then two real
#    multi-process runs — the elected resolver killed at its commit
#    point, and a SIGSTOP zombie resumed after re-election whose stale
#    commits must be fenced;
# 10. partition tolerance: a release-mode healed-partition wire run —
#    one participant SIGSTOPped for a full second mid-resolution, far
#    past the old fixed crash timeout, then SIGCONTed. The phi-accrual
#    detector must ride the outage out as a suspicion: the coordinator
#    asserts the §4.4 message law on the resumed mesh and that no
#    deserter was ever reported (the run is assessed as a clean run);
# 11. saturation smoke: the open-loop load generator drives ~200
#    Poisson-arriving actions through all three engines (the sharded
#    sim fleet, central, cr), asserting the per-action §4.4 law (the
#    sim run must print `law=true`: a missing verdict fails) and
#    full completion under multiplexing, zero deadline misses at low
#    load, and the checked-in BENCH_PR10.json against a live
#    regeneration of the saturation study;
# 12. the wall-clock benchmark still builds and checks itself: the
#    standalone `bench/` package's own unit tests, then its smoke suite
#    (every workload at ~1/20 size, untraced and traced), which exits
#    nonzero when any operation fails its completion, agreement, LCA
#    or §4.4 law check.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "== tier-2 [1/12]: caex-lint over every built-in workload, API docs, public surface =="
cargo run -q -p caex-lint --bin caex-lint
RUSTDOCFLAGS="-D rustdoc::broken_intra_doc_links -D rustdoc::private_intra_doc_links" \
    cargo doc --no-deps -q
if grep -rnw "crossbeam\|nvp\|recovery_block\|RecoveryBlock\|NVersion\|threaded_smoke\|with_idle_timeout" \
    crates src tests examples Cargo.toml; then
    echo "a deleted module, shim or option is back"; exit 1
fi
if grep -rn "Sender<Frame>" crates/caex-wire/src; then
    echo "the wire mesh's per-link frame channels are back"; exit 1
fi
if grep -rn "on_deserter(\|on_suspect(\|on_rejoin(" crates src tests examples \
    | grep -v "^crates/caex/src/participant.rs:"; then
    echo "a detector report bypasses Participant::handle"; exit 1
fi
dispatch='Effect::(Send|After) \{[^}]*\} =>|Effect::Note\([a-z_]*\) =>'
arms=$(grep -rnE "$dispatch" crates/*/src \
    | grep -v "^crates/caex/src/\(participant\|effect\|obs\)\.rs:" || true)
if [ "$(echo "$arms" | grep -c "^crates/caex/src/host.rs:")" != 3 ] \
    || echo "$arms" | grep -v "^crates/caex/src/host.rs:"; then
    echo "an effect dispatch is back beside caex::route:"; echo "$arms"; exit 1
fi
if grep -A8 "fn step<S: Sink" crates/caex/src/*.rs | grep "SimNet"; then
    echo "Machine::step names SimNet again: a step sees only its Outbox"; exit 1
fi
if grep -n "(NodeId, NodeId)" crates/caex-net/src/stats.rs; then
    echo "NetStats keys a map by channel again: the load accounting needs only the destination"
    exit 1
fi
if grep -n "MetricsRegistry" crates/caex/src/shard.rs; then
    echo "the fleet shard feeds a MetricsRegistry again: its verdict comes from its own counts"
    exit 1
fi
if grep -n "HashMap\|Vec<Vec<" crates/caex-tree/src/tree.rs; then
    echo "the exception tree grew a map or nested lists again: it is one flat, immutable table"
    exit 1
fi
if grep -n "IdMap<ActionId, ActionRec>" crates/caex/src/participant.rs; then
    echo "a participant hashes its action records again: they are one Vec sorted by action"
    exit 1
fi
if [ "$(sed -n '/^pub struct Exception {/,/^}/p' crates/caex-tree/src/exception.rs \
    | grep -c "Arc<str>")" -gt 1 ]; then
    echo "Exception holds its texts in more than one string again: one shared string holds both"
    exit 1
fi

echo "== tier-2 [2/12]: obs watchdog + §4.4 laws over every built-in workload =="
cargo test -q --test observability
for example in quickstart nested_recovery chaos; do
    cargo run -q --example "$example" > /dev/null
done

echo "== tier-2 [3/12]: regenerate TABLES.md and validated BENCH_PR2.json =="
cargo run -q -p caex-bench --bin tables -- --out TABLES.md --bench-json BENCH_PR2.json \
    > /dev/null

echo "== tier-2 [4/12]: BENCH_PR2.json matches the checked-in pin =="
cargo test -q -p caex-bench --test bench_pr2

echo "== tier-2 [5/12]: frame + codec fuzz battery, pinned wire bytes =="
cargo test -q --release -p caex-wire --test frame_props
cargo test -q --release -p caex --test proptests codec_

echo "== tier-2 [6/12]: multi-process §4.2 resolution over real sockets =="
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator --scenario example1
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator --scenario example2
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator --scenario example1 \
    --crash 3 --crash-mode exit
cargo test -q -p caex-wire --test multiprocess -- --ignored
cargo test -q -p caex-wire --test idle_cpu -- --ignored

echo "== tier-2 [7/12]: exhaustive model checking of the built-in scenarios =="
MODEL_LOG="$(mktemp)"
cargo run -q --release -p caex-lint --bin caex-lint -- check --model | tee "$MODEL_LOG"
# Example 2's exact count, too slow for a debug tier-1 test (the cheap
# entries are pinned in caex-lint's tests/model.rs).
if ! grep -q "^== model:example2: 1076849 states, 1916883 transitions, 55 crash points," \
    "$MODEL_LOG"; then
    rm -f "$MODEL_LOG"
    echo "model:example2 must read 1076849 states, 1916883 transitions, 55 crash points"; exit 1
fi
rm -f "$MODEL_LOG"

echo "== tier-2 [8/12]: causal analysis — BENCH_PR7 pin, caex-report, wire trace =="
cargo test -q -p caex-bench --test bench_pr7
TRACE_DIR="$(mktemp -d)"
trap 'rm -rf "$TRACE_DIR"' EXIT
cargo run -q -p caex-bench --bin caex-report -- record \
    --workload example2 --out "$TRACE_DIR/ex2-sim.jsonl"
cargo run -q -p caex-bench --bin caex-report -- analyze \
    --in "$TRACE_DIR/ex2-sim.jsonl" --check --table > "$TRACE_DIR/ex2-sim.table"
grep -q "A0#r1             405                205                100" \
    "$TRACE_DIR/ex2-sim.table" \
    || { echo "sim Example 2 critical path drifted from the pin:"; \
         cat "$TRACE_DIR/ex2-sim.table"; exit 1; }
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator \
    --scenario example2 --obs-out "$TRACE_DIR/ex2-wire.jsonl" > /dev/null
cargo run -q -p caex-bench --bin caex-report -- analyze \
    --in "$TRACE_DIR/ex2-wire.jsonl" --check --folded "$TRACE_DIR/ex2-wire.folded"
test -s "$TRACE_DIR/ex2-wire.folded" || { echo "empty folded output"; exit 1; }

echo "== tier-2 [9/12]: resolver failover + host equivalence — crash grids, shard, commit-point kill, zombie =="
cargo test -q --release -p caex --test failover
cargo test -q --release -p caex --test shard --test algorithm --test proptests --test alloc_budget \
    --test heap_budget --test instance_budget --test type_sizes --test extensions
cargo test -q --release --test baseline_streams --test stream_vs_stats --test causal
cargo test -q --release -p caex-wire --test cross_host
cargo test -q --release -p caex-net --lib --test proptests
cargo test -q --release -p caex-lint --test fixtures
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator \
    --scenario example1 --crash 2 --crash-point commit
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator \
    --scenario example1 --crash 2 --crash-mode stop --crash-point commit \
    --resume-after-ms 800

echo "== tier-2 [10/12]: healed partition — suspect, resume, zero deserters =="
cargo run -q --release -p caex-wire --bin caex-wire -- --role coordinator \
    --scenario example1 --partition 3 --partition-ms 1000

echo "== tier-2 [11/12]: saturation smoke — open-loop load, three engines, pin =="
LOAD_LINE=$(cargo run -q --release -p caex-load --bin caex-load -- run \
    --arrivals poisson:800 --actions 200 --engine sim --workers 2 --capacity 4 \
    --deadline-ms 20 --seed 10 --assert-law --assert-no-misses)
echo "$LOAD_LINE"
if ! echo "$LOAD_LINE" | grep -q " law=true "; then
    echo "the sim fleet's §4.4 verdict must read law=true"; exit 1
fi
cargo run -q --release -p caex-load --bin caex-load -- run \
    --arrivals poisson:800 --actions 200 --engine central --workers 2 --capacity 4 \
    --deadline-ms 20 --seed 10 --assert-no-misses
cargo run -q --release -p caex-load --bin caex-load -- run \
    --arrivals poisson:800 --actions 200 --engine cr --workers 2 --capacity 4 \
    --deadline-ms 20 --seed 10 --assert-no-misses
cargo test -q -p caex-load --test bench_pr10

echo "== tier-2 [12/12]: wall-clock benchmark — own tests and smoke suite =="
cargo test -q --offline --manifest-path bench/Cargo.toml
bench/run.sh --smoke

echo "tier-2 OK"
