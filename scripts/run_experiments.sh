#!/usr/bin/env bash
# Regenerate every experiment of EXPERIMENTS.md (quick mode).
#
# Usage: scripts/run_experiments.sh [--full] [--check] [output-dir]
#
#   --full   paper-scale parameters (slower)
#   --check  don't run anything; verify the experiment set hasn't
#            drifted: every binary under crates/bench/src/bin is either
#            run by this script or on the explicit skip list below, every
#            skipped name still exists, and every experiment binary is
#            documented in EXPERIMENTS.md.
set -euo pipefail

ROOT="$(cd "$(dirname "$0")/.." && pwd)"

# Binaries that are deliberately NOT experiments (each must still exist;
# --check fails on stale entries):
#   trace_overhead  - observability overhead gate (CI runs it --check)
SKIP="trace_overhead"

is_skipped() {
  case " $SKIP " in *" $1 "*) return 0 ;; *) return 1 ;; esac
}

# The experiment set is discovered, not hardcoded: a new bench binary is
# picked up automatically (or must be added to SKIP explicitly).
BINS=""
for f in "$ROOT"/crates/bench/src/bin/*.rs; do
  b="$(basename "$f" .rs)"
  is_skipped "$b" || BINS="$BINS $b"
done

FULL=""
CHECK=0
while [ $# -gt 0 ]; do
  case "$1" in
    --full) FULL="--full" ;;
    --check) CHECK=1 ;;
    *) break ;;
  esac
  shift
done

if [ "$CHECK" = 1 ]; then
  status=0
  for s in $SKIP; do
    if [ ! -f "$ROOT/crates/bench/src/bin/$s.rs" ]; then
      echo "DRIFT: skip list names '$s' but crates/bench/src/bin/$s.rs does not exist" >&2
      status=1
    fi
  done
  for b in $BINS; do
    if ! grep -q "\`$b\`" "$ROOT/EXPERIMENTS.md"; then
      echo "DRIFT: experiment binary '$b' is not documented in EXPERIMENTS.md" >&2
      status=1
    fi
  done
  if [ "$status" = 0 ]; then
    echo "no drift: $(echo "$BINS" | wc -w) experiment binaries, all documented; skip list clean"
  fi
  exit "$status"
fi

OUT="${1:-experiment-output}"
mkdir -p "$OUT"
for b in $BINS; do
  echo "== $b =="
  cargo run --release -q -p logp-bench --bin "$b" -- $FULL | tee "$OUT/$b.txt"
  echo
done
echo "outputs written to $OUT/"
