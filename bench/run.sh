#!/usr/bin/env bash
# Builds the benchmark (pinned release profile, offline) and runs it.
#
#   bench/run.sh --workload <name> --seed <n> --seconds <s> --trace <0|1>
#       one run; the last line of stdout is the result JSON
#   bench/run.sh [--seed <n>] [--smoke] [--runs <k>] [--repeat <r>]
#       every workload, untraced then traced, into bench/out/results-<set>.json;
#       --repeat 2 runs the suite twice and compares the two sets
#   bench/run.sh compare <a.json> <b.json>
set -euo pipefail
cd "$(dirname "$0")/.."
cargo build --release --offline --manifest-path bench/Cargo.toml >&2
exec "${CARGO_TARGET_DIR:-bench/target}/release/caex-wallbench" "$@"
