#!/usr/bin/env bash
# The one command of the performance ledger: offline release build of the
# harness, then hand the arguments to it.
#
#   benchmark/run.sh                       full ledger -> benchmark/out/result.json
#   benchmark/run.sh --smoke               every workload at ~1/100 size, all checks, < 60 s
#   benchmark/run.sh suite --scale full    the 4-8 s-per-job sizes
#   benchmark/run.sh compare A.json B.json
#   benchmark/run.sh --workload W --seed N --seconds S --trace 0|1   (what BENCHMARK.json runs)
#
# Exits non-zero when the build fails, a check fails (suite) or a metric
# regressed (compare).
set -euo pipefail

here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."

# A relative CARGO_TARGET_DIR (the gate sets `.bench_build`) is relative to
# the repository root, where we now are.
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-benchmark/target}"
cargo build --release --offline --quiet --manifest-path benchmark/Cargo.toml >&2

case "${1:-}" in
"") set -- suite ;;
--smoke) shift; set -- suite --smoke "$@" ;;
esac
exec "$CARGO_TARGET_DIR/release/logp-perf" "$@"
