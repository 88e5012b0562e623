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
# Pinned seed-pure outputs of the scale row: the served-output digest and
# the checkpoint image's bytes per user. A change that moves either
# updates the pin and says why.
grep -q '"digest": "e9e917e7f8085064", "image_bytes_per_user": 265.0047, "name": "serve/scale/10000"' \
    "$smoke_dir/BENCH_serve.json"
grep -q '"bytes_per_user"' "$smoke_dir/BENCH_serve.json"
grep -q '"image_bytes_per_user"' "$smoke_dir/BENCH_serve.json"
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
# Each hub is the seed-pure export, so grep a deterministic counter every
# serving hub carries (restarts are scheduling-class; the rows hold them).
grep -q '"server.requests"' "$smoke_dir/BENCH_chaos.json"
# Pinned seed-pure hubs: the corruption hub at 2 shards covers the strike
# and ban path (24 malformed frames, 2 dropped clients), the fabric hub at
# 16 shards the exactly-once path (10 duplicates suppressed). A change
# that moves either updates the pin and says why.
grep -qF '"chaos/corruption/2": {"counters": {"edge.checkins": 32, '\
'"edge.fresh_candidate_sets": 4, "edge.location_requests": 16, "edge.nomadic_draws": 0, '\
'"edge.posterior_cache_hits": 16, "edge.posterior_cache_misses": 0, '\
'"edge.posterior_draws": 16, "edge.uniform_draws": 0, "edge.windows_closed": 4, '\
'"server.dropped_clients": 2, "server.duplicates_suppressed": 0, '\
'"server.malformed_frames": 24, "server.requests": 52, "server.stale_rejections": 0}' \
    "$smoke_dir/BENCH_chaos.json"
grep -qF '"chaos/fabric/16": {"counters": {"edge.checkins": 32, '\
'"edge.fresh_candidate_sets": 4, "edge.location_requests": 16, "edge.nomadic_draws": 0, '\
'"edge.posterior_cache_hits": 16, "edge.posterior_cache_misses": 0, '\
'"edge.posterior_draws": 16, "edge.uniform_draws": 0, "edge.windows_closed": 4, '\
'"server.dropped_clients": 0, "server.duplicates_suppressed": 10, '\
'"server.malformed_frames": 10, "server.requests": 52, "server.stale_rejections": 0}' \
    "$smoke_dir/BENCH_chaos.json"
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
# they fail. It also enforces the codec gate: decode must cost < 1.75x
# the FNV-1a-32 checksum walk over each frame's header and body, sampled
# interleaved with it. On a shared 2-vCPU host decode (~60-75 ns) read
# 1.15-1.33x the walk at this smoke size and 1.31-1.34x at full size
# (`auction --seed 0`); a decode that first copies its frame into a `Vec`
# read 1.96-2.03x, and one that walks the checksum twice 2.14-2.43x
# (EXPERIMENTS.md). Decode as a share of one request through a live shard
# is reported in the row but not gated: it grows as serving gets faster.
# Full-size numbers live in BENCH_repro.json, regenerated on a quiet host.
./target/release/auction \
    --users 6 --checkins 40 --campaigns 60 --kills 1 --seed 1 \
    --bench-json "$smoke_dir/BENCH_auction.json" >"$smoke_dir/auction.out"
./target/release/privlocad-lint --root . --bench-json "$smoke_dir/BENCH_auction.json"
grep -q 'auction/exchange' "$smoke_dir/BENCH_auction.json"
# Pinned exchange-log digest of this smoke; a change that moves it updates
# the pin and says why.
grep -q '"digest": "a4c5591fa8b77fab", "name": "auction/exchange"' "$smoke_dir/BENCH_auction.json"
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
