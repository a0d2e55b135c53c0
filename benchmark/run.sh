#!/usr/bin/env bash
# The benchmark's one command: build the package, then run it.
#
#   benchmark/run.sh [--workload NAME] [--seed N] [--seconds S] [--trace [0|1]]
#                    [--json PATH] [--smoke] [--selfcheck]
#   benchmark/run.sh compare A.json B.json
#
# Without --workload every workload runs, each in a process of its own.
# Exits non-zero when the build fails, a correctness check fails, or a
# comparison finds a regression. See benchmark/README.md.
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
target="${CARGO_TARGET_DIR:-$here/../target/benchmark}"

# Progress goes to stderr: the last line of stdout is the result.
cargo build --release --offline --manifest-path "$here/Cargo.toml" \
    --target-dir "$target" ${BENCH_CARGO_FLAGS:-} >&2

BENCH_COMMIT="$(git -C "$here" rev-parse --short HEAD 2>/dev/null || echo unknown)"
BENCH_RUSTC="$(rustc --version 2>/dev/null || echo unknown)"
export BENCH_COMMIT BENCH_RUSTC
exec "$target/release/javelin-benchmark" "$@"
