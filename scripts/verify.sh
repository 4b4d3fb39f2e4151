#!/usr/bin/env bash
# Full offline verification gate: everything a PR must pass before merge.
# Runs with no network access — the workspace has no external registry
# dependencies (see DESIGN.md §4, Dependencies).
set -euo pipefail
cd "$(dirname "$0")/.."

echo "==> cargo build --release"
cargo build --release --workspace

echo "==> cargo test"
cargo test -q --workspace

echo "==> perfbench builds and its smoke tests pass"
# perfbench is its own workspace (the root members are crates/*,
# examples and tests), so the stages above never compile it. Build it
# against the current crates so an API change cannot break the
# wall-clock benchmark unnoticed. Cargo rewrites perfbench/Cargo.lock
# whenever a crate's dependency list has moved since the lock file was
# committed; perfbench/ belongs to the benchmark, so the stage puts the
# committed file back afterwards, also when the stage fails.
perfbench_lock=$(mktemp)
cp perfbench/Cargo.lock "$perfbench_lock"
trap 'cp "$perfbench_lock" perfbench/Cargo.lock; rm -f "$perfbench_lock"' EXIT
cargo test -q --release --offline --manifest-path perfbench/Cargo.toml
cp "$perfbench_lock" perfbench/Cargo.lock
rm -f "$perfbench_lock"
trap - EXIT

echo "==> fuzz smoke sweep (fixed seed)"
# Structure-aware mutation sweep over every decode path: no panics,
# bounded allocation, SoC/C-Engine differential agreement. Fixed seed,
# ~2s budget; reuses the release build from the first stage. Failures
# print a fuzz_sweep repro command with the exact case seed.
cargo run --release -q -p pedal-testkit --bin fuzz_sweep -- --cases 2500

echo "==> observability smoke (traced run + export validation)"
# Runs a small traced workload through pedal-service, writes
# results/trace_smoke.json + results/metrics_smoke.jsonl +
# results/prometheus_smoke.prom, and structurally validates every
# export: the Chrome trace (balanced name-matched B/E pairs per lane,
# every pipeline stage present), the Prometheus exposition (parses,
# counters monotone across two scrapes), and the versioned metrics
# JSONL (schema header first). Exits non-zero on any violation.
cargo run --release -q -p bench --bin obs_smoke

echo "==> parallel/hybrid ablation regenerates byte-identically (A4)"
# SoC-parallel and hybrid chunked DEFLATE on both platforms (~10 s):
# every makespan, engine share and decompress time in the table is
# virtual time, so the output must equal the committed
# results/ablation_hybrid.txt byte for byte.
cargo run --release -q -p bench --bin ablation_hybrid | diff -u results/ablation_hybrid.txt - || {
    echo "verify: FAIL — ablation_hybrid output differs from results/ablation_hybrid.txt" >&2
    exit 1
}

echo "==> chunk-parallel speedup gate (16 MiB, 4 channels >= 2x)"
# Writes BENCH_ablation_par.json at the repo root and exits non-zero unless the 4-channel fan-out reaches 2x single-channel
# virtual throughput.
cargo run --release -q -p bench --bin ablation_par

echo "==> pco numeric codec gate (determinism + ratio vs DEFLATE)"
# Fixed-seed determinism sweep (all four column widths plus bytes mode,
# non-finite floats included) and the ratio acceptance: pco must beat
# the DEFLATE-backend ratio on every float dataset (exaalt + obs_error)
# at <= 2x the SoC virtual-time cost. Writes BENCH_ablation_pco.json
# at the repo root and exits non-zero if any gate fails.
cargo run --release -q -p bench --bin ablation_pco

echo "==> streaming frame protocol gate (overlap >= 1.3x, byte identity)"
# PSF1 compress-while-sending vs sequential compress-then-send on a
# 16 MiB BF2 message: byte-identical round-trip on every path, wire
# bytes and virtual times deterministic across replays and window
# sizes (fixed chunk), and the streamed path must beat sequential by
# >= 1.3x one-way virtual time. Writes BENCH_streaming.json at the
# repo root and exits non-zero if any gate fails.
cargo run --release -q -p bench --bin ablation_streaming

echo "==> offload service ablation (channels, load, backpressure, live metrics)"
# Sweeps the pedal-service offload engine and exercises the live
# metrics plane under a deterministic overload: the rolling window must
# hold exactly the burst (calm phase expired), per-tenant SLO
# attainment must split 0%/100% on impossible/generous targets, and the
# Prometheus exposition must validate. Writes
# BENCH_ablation_service.json at the repo root.
cargo run --release -q -p bench --bin ablation_service

echo "==> engine contention ablation (concurrent streams, FIFO queueing)"
# Writes BENCH_ablation_contention.json at the repo root.
cargo run --release -q -p bench --bin ablation_contention

echo "==> fleet determinism & property suite"
# The multi-DPU serving tier's heavyweight correctness suite: seeded
# replay (byte-identical report + placement log at 2 seeds x 2 node
# mixes), placement invariant (no unsupported pair ever reaches an
# engine lane), token-bucket conservation, and the differential oracle
# (fleet output byte-identical to the single-service path).
cargo test -q -p pedal-fleet

echo "==> fleet overload gate (paying SLO holds, best-effort sheds)"
# Sustained bursty overload on a BF2+BF3 fleet: paying tenants' SLO
# attainment must stay 100% while best-effort traffic sheds; every
# completion byte-checked against the synchronous oracle; full-run
# replay must be digest-identical. Writes BENCH_fleet.json at the repo
# root and exits non-zero if any gate fails.
cargo run --release -q -p bench --bin ablation_fleet

echo "==> adaptive-policy gate (closed loop beats every static config)"
# The pedal-policy closed loop on a mixed-compressibility trace: the
# adaptive run must strictly beat every static (codec, placement)
# configuration in virtual-time goodput at <= 1% compression-ratio
# cost, its replay (and policy log) must be digest-identical, and every
# store-raw frame must round-trip byte-exact. Writes
# BENCH_adaptive.json at the repo root and exits non-zero if any gate
# fails.
cargo run --release -q -p bench --bin ablation_adaptive

echo "==> bench reports at repo root"
# Every bench bin writes its BENCH_<name>.json at the repository root;
# all seven gated reports must be present.
ls BENCH_*.json >/dev/null 2>&1 || {
    echo "verify: FAIL — no BENCH_*.json at the repository root" >&2
    exit 1
}
for f in BENCH_ablation_par.json BENCH_ablation_pco.json BENCH_streaming.json \
         BENCH_ablation_service.json BENCH_ablation_contention.json \
         BENCH_fleet.json BENCH_adaptive.json; do
    test -f "$f" || {
        echo "verify: FAIL — $f missing at the repository root" >&2
        exit 1
    }
done

echo "==> bench-regression gate (benchdiff vs committed baselines)"
# Proves the gate itself trips on a synthetic 25% regression, then
# compares every root BENCH_*.json just regenerated above
# against its committed copy. All numbers are virtual-time, so an
# unchanged tree always passes; a failure is a real behaviour change
# (refresh the committed reports deliberately if it is intentional).
cargo run --release -q -p bench --bin benchdiff -- --self-test
cargo run --release -q -p bench --bin benchdiff

echo "==> frozen reports regenerate byte-identically"
# benchdiff ignores unclassified keys such as bytes_out and wire_bytes
# and gates ratios only at 20 %, so an encoder that changed output bytes
# would pass it. The reports are a frozen oracle: every BENCH_*.json the
# stages above rewrote must equal its committed (or staged) copy.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    git diff --exit-code --stat -- 'BENCH_*.json' || {
        echo "verify: FAIL — a regenerated BENCH_*.json differs from git" >&2
        exit 1
    }
else
    echo "(not a git checkout: skipped)"
fi

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
