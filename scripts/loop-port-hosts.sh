#!/usr/bin/env bash
# Runs the port hosts' cross-host tests N times beside a CPU hog and
# tallies the failures: `caex-wire`'s `cross_host` (Example 2 over Unix
# sockets against the simulator, release, as tier-2 step 9 runs it) and
# the root `thread_vs_sim` (the simulator against real threads, debug,
# as tier-1 runs it), once each per round, with one busy loop spinning
# for the whole run. Exits nonzero if any run failed.
#
#   scripts/loop-port-hosts.sh 60
set -euo pipefail
cd "$(dirname "$0")/.."
n="${1:?usage: scripts/loop-port-hosts.sh N}"

cargo test -q --release -p caex-wire --test cross_host --no-run
cargo test -q --test thread_vs_sim --no-run

hog() { while :; do :; done; }
hog &
hog_pid=$!
trap 'kill "$hog_pid" 2>/dev/null || true' EXIT

cross=0
threads=0
for _ in $(seq 1 "$n"); do
    cargo test -q --release -p caex-wire --test cross_host > /dev/null 2>&1 || cross=$((cross + 1))
    cargo test -q --test thread_vs_sim > /dev/null 2>&1 || threads=$((threads + 1))
done
echo "loop-port-hosts: $n rounds beside a CPU hog: cross_host failed $cross, thread_vs_sim failed $threads"
test "$cross" = 0 && test "$threads" = 0
