#!/usr/bin/env bash
# Repository gate: formatting, lints, API docs, release build, the full
# test suite (which includes the deterministic work-counter regression
# test and the serving, session and heterogeneous-topology invariants),
# the wall-clock delta-replan gate, a live-daemon smoke, the planner-scale
# and fault-campaign smokes, and the end-to-end benchmark crate's tests and
# smoke run. Report output goes to target/check/, so a run leaves the tree
# clean. Fails fast: the first failing step aborts the run with a banner
# naming it.
# Usage: scripts/check.sh
set -euo pipefail
cd "$(dirname "$0")/.."

STEP=""

banner() {
  STEP="$1"
  printf '\n===================================================================\n'
  printf '==> %s\n' "$STEP"
  printf '===================================================================\n'
}

trap 'status=$?; if [ $status -ne 0 ]; then printf "\nFAILED at step: %s (exit %d)\n" "$STEP" "$status" >&2; fi' EXIT

banner "format check (cargo fmt --check)"
cargo fmt --check

banner "lints (cargo clippy --workspace --all-targets -D warnings)"
cargo clippy --workspace --all-targets -- -D warnings

banner "API docs (cargo doc --no-deps --workspace, RUSTDOCFLAGS=-D warnings)"
# Broken intra-doc links or missing docs on public items fail the gate.
RUSTDOCFLAGS="-D warnings" cargo doc --no-deps --workspace

banner "release build (cargo build --release)"
cargo build --release

banner "test suite (cargo test --workspace -q)"
cargo test --workspace -q

banner "wall-clock loopback tests (ignored by the default suite)"
cargo test -p redistd --test loopback -q -- --ignored

mkdir -p target/check

banner "delta-replan speedup gate (delta_bench -> target/check/BENCH_delta.json)"
# Fails unless single-cell replans at n=256 beat cold OGGP planning by at
# least 3x.
cargo run --release -p bench --bin delta_bench -- --out target/check/BENCH_delta.json

banner "serve-scale smoke (daemon at 256 connections + METRICS/FLIGHT gates)"
PORT_FILE="$(mktemp)"
FLIGHT_DUMP="$(mktemp)"
rm -f "$PORT_FILE"
./target/release/redistd --addr 127.0.0.1:0 --workers 2 --queue-depth 1024 \
  --port-file "$PORT_FILE" --flight-dump "$FLIGHT_DUMP" &
REDISTD_PID=$!
for _ in $(seq 1 100); do
  [ -s "$PORT_FILE" ] && break
  sleep 0.1
done
[ -s "$PORT_FILE" ] || { echo "redistd never wrote its port file" >&2; exit 1; }
ADDR="$(cat "$PORT_FILE")"
# Closed-loop burst at 256 connections: exits non-zero on any response
# that is not byte-identical to a cold plan.
./target/release/redistload --addr "$ADDR" \
  --requests 512 --connections 256 --distinct 4 --n 10
# Open-loop mode against the same daemon (latency from scheduled send).
./target/release/redistload --addr "$ADDR" \
  --requests 100 --connections 8 --rate 400 --distinct 4 --n 10
# The daemon must have admitted every frame the two runs sent (512 + 100),
# the exposition must be well-formed, and the flight recorder must have a
# record for every one of those requests.
ADMITTED="$(./target/release/redistctl metrics --addr "$ADDR" --field redistd_admissions_total)"
[ "$ADMITTED" -ge 612 ] || { echo "expected >= 612 admissions, daemon reports '$ADMITTED'" >&2; exit 1; }
./target/release/redistctl metrics --addr "$ADDR" --validate > /dev/null
./target/release/redistctl flight --addr "$ADDR" --expect-requests 612 > /dev/null
kill -TERM "$REDISTD_PID"
wait "$REDISTD_PID"
[ -s "$FLIGHT_DUMP" ] || { echo "redistd wrote no flight dump on drain" >&2; exit 1; }
rm -f "$PORT_FILE" "$FLIGHT_DUMP"

banner "hierarchical-planner scale smoke (scale_bench --smoke, n=256 only)"
cargo run --release -p bench --bin scale_bench -- --smoke

banner "execution-runtime fault campaign (redistexec -> target/check/BENCH_exec.json)"
cargo run --release -p redistexec --bin redistexec -- \
  --bench --seeds 40 --out target/check/BENCH_exec.json

banner "end-to-end benchmark crate (its tests + --smoke against the current product API)"
# `benchmark/` is a package of its own that compiles against the product
# crates' public API; building and smoke-running it here makes an API
# change that breaks it fail this gate instead of the next benchmark run.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

printf '\nAll checks passed.\n'
