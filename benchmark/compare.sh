#!/usr/bin/env bash
# benchmark/compare.sh A.json B.json
#
# Compares two results.json files of benchmark/run.sh, A as the base and B
# as the candidate: each end-to-end metric may be worse in B by at most its
# bound in BENCHMARK.json; every count, modeled value, paper_err_pct,
# ops_per_rep and ops_failed must be equal. Non-zero exit on any failure.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
a="$(realpath "$1")"
b="$(realpath "$2")"
cd "$here/.."
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2
exec "$target/release/nds-benchmark" compare "$a" "$b" --benchmark-json BENCHMARK.json
