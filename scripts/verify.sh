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
# bounded allocation, SoC/C-Engine differential agreement. The deflate
# and lz4-block cases also compress a mutated input with the split
# parses at 1..=4 forced segments against the sequential parse. Fixed
# seed, ~4s budget; reuses the release build from the first stage.
# Failures print a fuzz_sweep repro command with the exact case seed.
cargo run --release -q -p pedal-testkit --bin fuzz_sweep -- --cases 2500

echo "==> golden vectors regenerate byte-identically"
# The wire-format vectors are a pure function of the encoders: a rerun
# of make_vectors must reproduce every committed file.
cargo run --release -q -p pedal-testkit --bin make_vectors >/dev/null

echo "==> repro: every experiment regenerates its artifacts"
# Runs every paper table, figure and ablation (see DESIGN.md §3) and
# rewrites results/ and the BENCH_*.json reports at the repo root. Exits
# non-zero, naming the experiment, if any gate fails: A8 fan-out >= 2x,
# pco ratio, streaming overlap, fleet SLO/shedding/replay, adaptive
# goodput/ratio/replay, and the observability exports.
cargo run --release -q -p bench --bin repro >/dev/null

echo "==> regenerated artifacts equal the committed ones"
# Every number is virtual time and every export is deterministic, so a
# changed byte is a changed behaviour: refresh the committed files
# deliberately when it is intended. `git diff` sees only tracked files;
# the status check also catches an artifact that is new, staged or
# left behind, which a diff would pass over.
if git rev-parse --is-inside-work-tree >/dev/null 2>&1; then
    artifacts=(results/ 'BENCH_*.json' crates/pedal-testkit/tests/vectors)
    git diff --exit-code --stat -- "${artifacts[@]}" || {
        echo "verify: FAIL — regenerated artifacts differ from git (see the files above)" >&2
        exit 1
    }
    stray=$(git status --porcelain --untracked-files=all -- "${artifacts[@]}")
    if [ -n "$stray" ]; then
        echo "$stray" >&2
        echo "verify: FAIL — artifacts not committed (see the files above)" >&2
        exit 1
    fi
else
    echo "(not a git checkout: skipped)"
fi

echo "==> reference zlib, gzip and lz4 decode our golden vectors"
# The other direction, pedal decoding streams that CPython's zlib and the
# lz4 CLI wrote, is the tier-1 test foreign_vectors.rs. This one needs the
# reference tools themselves, so it runs only where they are installed.
if command -v python3 >/dev/null && command -v lz4 >/dev/null; then
    python3 scripts/interop.py check-reverse
else
    echo "(python3 or lz4 not on PATH: reverse interop check skipped)"
fi

echo "==> cargo clippy -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

echo "==> cargo doc -D warnings"
# Intra-doc links are checked like code: a link that a rename or a
# deletion broke, or one that names two items at once, fails the gate.
RUSTDOCFLAGS="-D warnings" cargo doc -q --no-deps --workspace

echo "==> cargo fmt --check"
cargo fmt --check

echo "verify: OK"
