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

for bench in table1 figure2 correctness theorem1 effort ablation_reduce ablation_machine; do
  echo
  echo "================================================================"
  echo "== $bench"
  echo "================================================================"
  cargo bench -p bench --bench "$bench"
done

echo
echo "================================================================"
echo "== micro (reduction schedules, ordered sum)"
echo "================================================================"
cargo bench -p bench --bench micro
