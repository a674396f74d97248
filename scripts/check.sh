#!/usr/bin/env bash
# Repository gate: formatting, lints, API docs, release build, the full
# test suite (which includes the deterministic work-counter regression
# test), the serving-layer campaigns and the end-to-end benchmark crate's
# tests and smoke run. Campaign output goes to target/check/, so a run leaves the
# tree clean. Fails fast: the first failing step aborts the run with a
# banner naming it.
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

banner "serving-scale campaign (redistload --campaign -> target/check/BENCH_serve.json)"
cargo run --release -p redistd --bin redistload -- \
  --campaign 64,256,1024 --requests 512 --distinct 8 --n 10 --out target/check/BENCH_serve.json

banner "streaming-admission campaign (redistload --sessions -> target/check/BENCH_session.json)"
# A live session on each serving core streams 48 delta batches; every
# patched schedule must byte-compare equal to a client-side mirror planner
# and deliver exactly what a cold plan of the post-delta matrix delivers.
cargo run --release -p redistd --bin redistload -- \
  --sessions 48 --delta-cells 2 --n 12 --out target/check/BENCH_session.json

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
  --requests 512 --connections 256 --distinct 4 --n 10 --out /dev/null
# Open-loop mode against the same daemon (latency from scheduled send).
./target/release/redistload --addr "$ADDR" \
  --requests 100 --connections 8 --rate 400 --distinct 4 --n 10 --out /dev/null
# The daemon must be running the event core, the exposition must be
# well-formed, and the flight recorder must have a record for every
# request the load generator sent.
CORE="$(./target/release/redistctl stats --addr "$ADDR" --field core)"
[ "$CORE" = "event" ] || { echo "expected event core, daemon reports '$CORE'" >&2; exit 1; }
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

banner "heterogeneous-topology smoke (hetero_bench --smoke)"
# Plans and executes the {homogeneous, star, two-backbone} x {fault-free,
# faulty} slice under per-bottleneck k derivation; fails on any validation
# error, delivery violation, or a cost beating the heterogeneity-aware
# lower bound. The homogeneous arm is byte-compared to the Platform oracle.
cargo run --release -p bench --bin hetero_bench -- --smoke > /dev/null

banner "end-to-end benchmark crate (its tests + --smoke against the current product API)"
# `benchmark/` is a package of its own that compiles against the product
# crates' public API; building and smoke-running it here makes an API
# change that breaks it fail this gate instead of the next benchmark run.
cargo test --offline --manifest-path benchmark/Cargo.toml
cargo run --release --offline --manifest-path benchmark/Cargo.toml -- --smoke

printf '\nAll checks passed.\n'
