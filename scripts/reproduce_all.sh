#!/usr/bin/env bash
# Regenerate every table and figure of the paper, plus the ablations, from
# models and bits. Each bench computes its verdicts and exits non-zero on
# any `NOT reproduced`, which stops this script. Numbers measured on this
# host are not here: `bash ledger/run.sh`.
# Full scale by default; pass a fraction to shrink step counts, e.g.
#   ./scripts/reproduce_all.sh 0.25
set -euo pipefail
cd "$(dirname "$0")/.."

SCALE="${1:-}"
if [ -n "$SCALE" ]; then
  export REPRO_SCALE="$SCALE"
  echo "== running at REPRO_SCALE=$SCALE =="
fi

echo "== building (release) =="
cargo build --workspace --release
cargo bench -p bench --no-run

# Each bench's wall time, build excluded, so a smoke log shows what the
# discrete-event sweeps cost.
total=0
for bench in table1 figure2 correctness theorem1 effort ablation_reduce ablation_machine micro; do
  echo
  echo "================================================================"
  if [ "$bench" = micro ]; then
    echo "== micro (reduction schedules, ordered sum)"
  else
    echo "== $bench"
  fi
  echo "================================================================"
  SECONDS=0
  cargo bench -p bench --bench "$bench"
  echo "== $bench took ${SECONDS} s"
  total=$((total + SECONDS))
done

echo
echo "== all benches took ${total} s (build excluded)"
