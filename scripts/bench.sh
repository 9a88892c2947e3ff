#!/usr/bin/env bash
# Run the figure2 bench and capture its numbers as BENCH_figure2.json at the
# repo root: measured (closed-form-priced) times, DES-predicted times with
# the critical-path breakdown per machine (baseline plan and the
# boundary-first overlap plan side by side), measured wall times of the real
# threaded execution per P for both plans (with the host's core count, so
# flat curves on small machines are interpretable), the distributed series
# for both plans (star transport — the longitudinal baseline), the
# `distributed_direct` data-plane series (star vs direct vs direct+shm
# per-plane frame counts, plus a checkpoint-resumed SIGKILL point with its
# replay distance), the Yee-stencil kernel microbench point, the machine
# preset, and the grid. The standalone stencil shape sweep is
# `cargo bench -p bench --bench stencil`.
#
# Modes:
#   scripts/bench.sh          quick run  (REPRO_SCALE=0.1 unless set)
#   scripts/bench.sh smoke    fastest run (REPRO_SCALE=0.02), for CI
#   scripts/bench.sh full     the paper's full 512-step workload
#
# REPRO_SCALE can always be overridden from the environment.
#
# SSP_WORKERS (optional) pins the M:N scheduler's worker-pool size for the
# threaded series (recorded per point as "workers"/"sched" in the JSON);
# unset, the pool sizes itself to the host's available cores.
set -euo pipefail

cd "$(dirname "$0")/.."

mode="${1:-quick}"
case "$mode" in
  smoke) scale="${REPRO_SCALE:-0.02}" ;;
  quick) scale="${REPRO_SCALE:-0.1}" ;;
  full)  scale="${REPRO_SCALE:-1.0}" ;;
  *) echo "usage: $0 [quick|smoke|full]" >&2; exit 2 ;;
esac

out="$PWD/BENCH_figure2.json"
echo "bench.sh: mode=$mode REPRO_SCALE=$scale SSP_WORKERS=${SSP_WORKERS:-auto} -> $out"

# The distributed series needs the worker executable: build it in release
# and hand its path to the bench via SSP_WORKER_BIN. The series archives
# worker counts, migration counts, and bitwise-identity per point
# (including one SIGKILL-mid-run migration point) into the JSON.
cargo build --release -p ssp-dist --bin ssp-worker
export SSP_WORKER_BIN="$PWD/target/release/ssp-worker"

# The flight-trace series also writes the predicted-vs-measured Chrome
# overlay (P=4 point) — one file, two process tracks, load it in
# chrome://tracing or Perfetto. A local artifact: written and validated
# here, listed in .gitignore, not tracked.
trace="$PWD/TRACE_figure2.json"

# Absolute paths: cargo runs bench binaries from the package directory.
REPRO_SCALE="$scale" BENCH_JSON="$out" TRACE_JSON="$trace" \
  cargo bench -p bench --bench figure2

test -s "$out" || { echo "bench.sh: $out was not written" >&2; exit 1; }
grep -q '"distributed_direct"' "$out" \
  || { echo "bench.sh: $out lacks the direct-plane series" >&2; exit 1; }
test -s "$trace" || { echo "bench.sh: $trace was not written" >&2; exit 1; }
# The overlay must be a loadable trace: valid JSON with complete events on
# both the predicted (pid 0) and measured (pid 1) tracks.
grep -q '"traceEvents"' "$trace" || { echo "bench.sh: $trace lacks traceEvents" >&2; exit 1; }
grep -q '"pid":0' "$trace" || { echo "bench.sh: $trace lacks the predicted track" >&2; exit 1; }
grep -q '"pid":1' "$trace" || { echo "bench.sh: $trace lacks the measured track" >&2; exit 1; }
# The direct-plane run mirrors its route marks into the trace: the third
# track must attribute payloads to the fast planes (data-direct/data-shm).
grep -Eq '"name":"data-(direct|shm)"' "$trace" \
  || { echo "bench.sh: $trace lacks distributed route marks" >&2; exit 1; }
echo "bench.sh: wrote $out and $trace"
