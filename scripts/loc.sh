#!/usr/bin/env bash
# Print the code-size columns of ROADMAP's table for one commit:
#   - Rust lines under `crates src tests examples`,
#   - the line counts of `sched.rs`, `worker.rs` and `supervisor.rs`,
# then the non-test lines of each crate: every `src/**/*.rs` file counted
# up to its first `#[cfg(test)]` line. The tree is read with `git archive`,
# so uncommitted edits do not count.
#   scripts/loc.sh            # HEAD
#   scripts/loc.sh HEAD~1     # any revision git names
set -euo pipefail
cd "$(dirname "$0")/.."

rev="${1:-HEAD}"
tree="$(mktemp -d)"
trap 'rm -rf "$tree"' EXIT
git archive "$rev" crates src tests examples | tar -x -C "$tree"

# Lines of every `.rs` file under the given paths (0 when there is none).
lines() {
  find "$@" -name '*.rs' -print0 | xargs -0 -r cat | wc -l
}

# Lines of the `src/**/*.rs` files under a package directory, each file
# counted up to its first `#[cfg(test)]`.
non_test() {
  find "$1/src" -name '*.rs' -print0 \
    | xargs -0 -r awk 'FNR == 1 { t = 0 } /^[[:space:]]*#\[cfg\(test\)\]/ { t = 1 } !t { n++ } END { print n + 0 }'
}

echo "commit $(git rev-parse --short "$rev")"
printf '%-8s %-10s %-10s %-14s\n' lines sched.rs worker.rs supervisor.rs
printf '%-8s %-10s %-10s %-14s\n' \
  "$(lines "$tree")" \
  "$(lines "$tree/crates/ssp-runtime/src/sched.rs")" \
  "$(lines "$tree/crates/ssp-dist/src/worker.rs")" \
  "$(lines "$tree/crates/ssp-dist/src/supervisor.rs")"
echo
echo "non-test lines per crate"
for dir in "$tree"/crates/*/; do
  [ -d "$dir/src" ] || continue
  printf '%-16s %s\n' "$(basename "$dir")" "$(non_test "$dir")"
done
printf '%-16s %s\n' "(root package)" "$(non_test "$tree")"
