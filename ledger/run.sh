#!/usr/bin/env bash
# Build `ledger` and `ssp-worker` from source, then run `ledger` with the
# given arguments. Run from the repo root (BENCHMARK.json's `command`).
set -euo pipefail
export CARGO_TARGET_DIR="${CARGO_TARGET_DIR:-ledger/target}"
cargo build --release --offline --quiet --manifest-path ledger/Cargo.toml >&2
exec "$CARGO_TARGET_DIR/release/ledger" "$@"
