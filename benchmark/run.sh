#!/usr/bin/env bash
# The one command of the repo benchmark (see benchmark/README.md).
#
#   benchmark/run.sh [--seed S] [--seconds N] [--traced] [--out DIR]
#       builds --release, then runs every workload in its own process, one
#       after the other, and writes DIR/results.json (default benchmark/out).
#   benchmark/run.sh --workload W --seed S --seconds N --trace 0|1
#       runs one workload; the last line of standard output is the JSON
#       object BENCHMARK.json's contract asks for.
#
# Exit status is non-zero if the build fails, a set-up fails, or any
# operation or output check fails.
set -euo pipefail
here="$(cd "$(dirname "${BASH_SOURCE[0]}")" && pwd)"
cd "$here/.."
# cargo resolves a relative CARGO_TARGET_DIR against the working directory,
# which is the repository root from here on.
target="${CARGO_TARGET_DIR:-$here/target}"
CARGO_TARGET_DIR="$target" cargo build --release --offline --locked --quiet \
    --manifest-path "$here/Cargo.toml" >&2
label="$(git rev-parse --short HEAD 2>/dev/null || echo unversioned)"
exec "$target/release/nds-benchmark" --label "$label" "$@"
