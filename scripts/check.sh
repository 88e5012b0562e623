#!/usr/bin/env bash
# CI-style gate: build, test, lint, and a fast end-to-end repro smoke.
# Run from anywhere; operates on the workspace containing this script.
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo fmt --all --check"
# rustfmt.toml holds the house style; fleetbench is its own workspace, so
# `--all` leaves it alone.
cargo fmt --all --check

echo "==> cargo build --release --workspace"
cargo build --release --workspace

# The two test runs go under `timeout`: a call that never returns (a lock
# held across a fabric slot and a shard in opposite orders, say) then
# fails the gate instead of stalling it.
echo "==> cargo test -q"
timeout 20m cargo test -q

echo "==> fleetbench self-test (reference-replay oracle, exchange-log digest, ledger audit)"
# The only test that drives all three benchmark workloads through the live
# fleet and checks them against the in-process reference replay, so it is
# the one that catches a bid drain-order or kill-rollback regression.
timeout 20m cargo test --release --offline -q --manifest-path fleetbench/Cargo.toml

echo "==> cargo build --no-default-features (trace feature compiles out)"
cargo build --workspace --no-default-features

echo "==> cargo clippy -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo clippy over fleetbench -- -D warnings"
# fleetbench is its own workspace, so the step above never reaches it: a
# library API change that leaves the benchmark with warnings shows here.
cargo clippy --offline --manifest-path fleetbench/Cargo.toml --all-targets -- -D warnings

echo "==> cargo doc (rustdoc warnings are errors)"
# Neither the build nor clippy resolves doc links: a doc that still links
# to a deleted or private item only shows up here.
RUSTDOCFLAGS=-Dwarnings cargo doc --workspace --no-deps

echo "==> privlocad-lint (workspace invariants + bench report shape)"
./target/release/privlocad-lint --root . --bench-json BENCH_repro.json

echo "==> privlocad-lint flow analysis (location-leak/seed-flow budget gate + JSON artifact)"
# The flow passes must stay cheap enough to run on every check: 250 ms
# release-mode for the full workspace, enforced here. The machine-readable
# findings report (path witnesses included) is left in target/ as a build
# artifact.
./target/release/privlocad-lint --root . --quiet \
    --json target/lint_report.json --flow-budget-ms 250
grep -q '"flow_analysis_ms"' target/lint_report.json
grep -q '"active": 0' target/lint_report.json

echo "==> repro all (smoke, reduced sizes)"
smoke_dir="$(mktemp -d)"
trap 'rm -rf "$smoke_dir"' EXIT
./target/release/repro all \
    --users 60 --trials 500 --seed 1 \
    --bench-json "$smoke_dir/BENCH_smoke.json" >"$smoke_dir/repro_all.out"
grep -q '"experiment": "all"' "$smoke_dir/BENCH_smoke.json"
grep -q 'all configurations hold' "$smoke_dir/repro_all.out"

echo "==> bench serve (smoke, reduced sizes)"
# Shape/consistency only — no wall-clock thresholds: the CI host is a shared
# 2-vCPU VM, so absolute throughput (and even the speedup ratio at these
# tiny sizes) is not meaningful here. The real numbers live in
# BENCH_repro.json, regenerated at full size on a quiet host.
./target/release/serve \
    --users 10000 --requests 1024 --batch 16 --threads 2 --seed 1 \
    --bench-json "$smoke_dir/BENCH_serve.json" >"$smoke_dir/serve.out"
./target/release/privlocad-lint --root . --bench-json "$smoke_dir/BENCH_serve.json"
grep -q 'serve/legacy_single' "$smoke_dir/BENCH_serve.json"
grep -q 'serve/batched_cached/16' "$smoke_dir/BENCH_serve.json"
grep -q 'serve/partitioned_batched/16x2' "$smoke_dir/BENCH_serve.json"
grep -q 'requests_per_sec' "$smoke_dir/BENCH_serve.json"
# Scale-stage smoke at one 10k-user shard: row shape and the seed-pure
# output digest only — encode/recovery wall-clock stays ungated here for
# the same shared-host reason (the lint schema still checks the row's
# internal consistency above).
grep -q 'serve/scale/10000' "$smoke_dir/BENCH_serve.json"
grep -q '"bytes_per_user"' "$smoke_dir/BENCH_serve.json"
grep -q '"digest"' "$smoke_dir/BENCH_serve.json"
grep -q 'batched+cached vs legacy single-request path' "$smoke_dir/serve.out"
# Telemetry smoke: the serving hub lands in the log (validated above by
# --bench-json) and the cache-hit line prints.
grep -q '"telemetry"' "$smoke_dir/BENCH_serve.json"
grep -q '"edge.posterior_cache_hits"' "$smoke_dir/BENCH_serve.json"
grep -q '"ledger"' "$smoke_dir/BENCH_serve.json"
grep -q 'telemetry: posterior cache' "$smoke_dir/serve.out"

echo "==> bench chaos (smoke, reduced sizes)"
# Shape/survival only — the harness itself asserts the hard contract
# (bit-for-bit replay equality, zero candidate re-draws); a non-zero exit
# here means a fault schedule broke the serving path.
./target/release/chaos \
    --users 4 --checkins 8 --requests 4 --kills 2 --corruptions 4 --threads 2 --seed 1 \
    --bench-json "$smoke_dir/BENCH_chaos.json" >"$smoke_dir/chaos.out"
./target/release/privlocad-lint --root . --bench-json "$smoke_dir/BENCH_chaos.json"
grep -q 'chaos/corruption/1' "$smoke_dir/BENCH_chaos.json"
grep -q 'chaos/worker_kill/2' "$smoke_dir/BENCH_chaos.json"
grep -q 'chaos/mid_window_restart/2' "$smoke_dir/BENCH_chaos.json"
grep -q 'chaos/flood/2' "$smoke_dir/BENCH_chaos.json"
grep -q 'recovery_ns' "$smoke_dir/BENCH_chaos.json"
grep -q 'survival contract held' "$smoke_dir/chaos.out"
# Telemetry smoke: per-scenario hubs land in the log and the ledger
# audit (asserted inside the harness) reports clean.
grep -q '"chaos/worker_kill/2": {"counters"' "$smoke_dir/BENCH_chaos.json"
grep -q '"server.restarts"' "$smoke_dir/BENCH_chaos.json"
grep -q 'privacy ledger audit: .* zero double-spends' "$smoke_dir/chaos.out"
# Fabric rows: the faulty-link sweep (drop+duplicate+delay+corrupt+kill)
# survives bit-for-bit at 1/4/16 shards, and the degraded ladder walks
# the breaker while serving only stale *released* locations.
grep -q 'chaos/fabric/1' "$smoke_dir/BENCH_chaos.json"
grep -q 'chaos/fabric/16' "$smoke_dir/BENCH_chaos.json"
grep -q 'chaos/degraded/2' "$smoke_dir/BENCH_chaos.json"
grep -q '"duplicates_suppressed"' "$smoke_dir/BENCH_chaos.json"
grep -q '"breaker_transitions"' "$smoke_dir/BENCH_chaos.json"
grep -q '"deadline_misses"' "$smoke_dir/BENCH_chaos.json"

echo "==> bench chaos (1k-user fleet smoke)"
# The same survival contract at a fleet size where the round-robin
# partition actually spreads load: exactly-once duplicate suppression
# and the cross-shard bit-for-bit checks are asserted in-process.
./target/release/chaos \
    --users 1000 --checkins 6 --requests 4 --kills 2 --corruptions 4 --threads 4 --seed 1 \
    --bench-json "$smoke_dir/BENCH_chaos_1k.json" >"$smoke_dir/chaos_1k.out"
./target/release/privlocad-lint --root . --bench-json "$smoke_dir/BENCH_chaos_1k.json"
grep -q 'chaos/fabric/4' "$smoke_dir/BENCH_chaos_1k.json"
grep -q 'survival contract held' "$smoke_dir/chaos_1k.out"

echo "==> bench auction (smoke, reduced sizes)"
# The binary asserts the hard contracts untimed (exchange-log digests
# bit-identical at 1/4/16 shards and under one kill per shard,
# commit-phase emission exactly-once) and refuses to write the row if
# they fail. It also enforces the codec <10 % gate: decode (~75 ns) over
# one request through a live shard run on the caller (~1.5 µs) reads
# 4-7 % on a shared 2-vCPU host (EXPERIMENTS.md) — under the ceiling, with
# 1.4-2.5x headroom. Full-size numbers live in BENCH_repro.json,
# regenerated on a quiet host.
./target/release/auction \
    --users 6 --checkins 40 --campaigns 60 --kills 1 --seed 1 \
    --bench-json "$smoke_dir/BENCH_auction.json" >"$smoke_dir/auction.out"
./target/release/privlocad-lint --root . --bench-json "$smoke_dir/BENCH_auction.json"
grep -q 'auction/exchange' "$smoke_dir/BENCH_auction.json"
grep -q '"decode_ns_per_req"' "$smoke_dir/BENCH_auction.json"
grep -q '"attack_success_live"' "$smoke_dir/BENCH_auction.json"
grep -q '"digest"' "$smoke_dir/BENCH_auction.json"
grep -q 'determinism: exchange log bit-identical across 4 fleet runs' "$smoke_dir/auction.out"
# Telemetry smoke: the rtb.* exchange counters land next to the row.
grep -q '"rtb.bid_requests"' "$smoke_dir/BENCH_auction.json"

echo "==> bench microbench (smoke, reduced sizes)"
# Shape/determinism only — no wall-clock or ratio gate: the CI host is a
# shared 2-vCPU VM, so the batched-vs-cold speedup at these tiny
# sizes is not meaningful here. The binary itself asserts the hard
# contract untimed (batched candidate streams bit-for-bit equal to the
# scalar path, one ledger spend per set, permanence on re-install); the
# real ratio lives in BENCH_repro.json, regenerated at full size on a
# quiet host.
./target/release/microbench \
    --users 6 --tops 2 --edges 4 --n 5 --seed 1 \
    --bench-json "$smoke_dir/BENCH_micro.json" >"$smoke_dir/micro.out"
./target/release/privlocad-lint --root . --bench-json "$smoke_dir/BENCH_micro.json"
grep -q 'candidate_install/cold' "$smoke_dir/BENCH_micro.json"
grep -q 'candidate_install/batched' "$smoke_dir/BENCH_micro.json"
grep -q 'ns_per_op' "$smoke_dir/BENCH_micro.json"
grep -q 'batched vs cold candidate install' "$smoke_dir/micro.out"
grep -q 'determinism: batched candidate streams match the scalar path' "$smoke_dir/micro.out"
# Telemetry smoke: the install-profile hub lands in the log (validated
# above by --bench-json) and ledgers one spend per (user, top) pair.
grep -q '"candidate_install": {"counters"' "$smoke_dir/BENCH_micro.json"
grep -q '"edge.fresh_candidate_sets"' "$smoke_dir/BENCH_micro.json"
grep -q 'telemetry: 12 fresh candidate sets, 12 ledger spends' "$smoke_dir/micro.out"

echo "OK"
