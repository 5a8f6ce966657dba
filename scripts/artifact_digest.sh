#!/usr/bin/env bash
# Artifact identity net: runs the deterministic bench bins fully
# instrumented (report + causal trace + dashboard) and
# prints one `sha256  name` line per artifact, sorted by name. Without
# arguments the digests are compared against scripts/artifact_digests.txt
# and any difference fails; a refactor that claims "every artifact
# byte-identical" proves it by leaving that file alone.
#
# Usage: scripts/artifact_digest.sh [--bless]
#   --bless  rewrite scripts/artifact_digests.txt from this checkout (only
#            for a change that moves artifacts on purpose; the first line
#            records the commit the digests were generated at) and print
#            `name: old → new` for every row that moved, then the number of
#            rows moved and left unchanged.
set -euo pipefail

cd "$(dirname "$0")/.."
digests="scripts/artifact_digests.txt"

cargo build --quiet --release -p nds-bench \
    --bin fig9 --bin fig10 --bin fault_sweep --bin tenants --bin cluster
bin="$PWD/target/release"
out="$(mktemp -d)"
trap 'rm -rf "$out"' EXIT

# run <name> <bin> [args...]: every artifact lands under a fixed relative
# name (the dashboard HTML embeds its sibling data.js *basename*, and stdout
# echoes the paths). stdout is kept too: it carries the modeled-time tables.
run() {
    local name="$1"
    shift
    (cd "$out" && "$bin/$1" "${@:2}" \
        --report "$name.report.json" --trace "$name.trace.json" \
        --dashboard "$name.html" > "$name.stdout.txt")
}
run fig9a fig9 a
run fig9d fig9 d
run fig10 fig10
run fault_sweep fault_sweep 11
run tenants tenants --seed 42
run cluster cluster --seed 7
run cluster_unsharded cluster --seed 7 --shard-rows 0

# Non-vacuity: the device-kill run must actually report its failover series
# (identical-but-empty telemetry would hash just as stably).
grep -q 'failover_events' "$out/cluster.report.json" \
    || { echo "artifact_digest.sh: cluster report lost the failover series" >&2; exit 1; }
# Likewise the flash channels' busy timelines, which ride in the report's
# series as `busy.<resource>`.
grep -qF 'busy.flash.ch[' "$out/fig9a.report.json" \
    || { echo "artifact_digest.sh: fig9a report lost its busy.flash.ch[*] series" >&2; exit 1; }
# Likewise the 128 MiB write's page striping: its traced PageProgrammed
# markers are what the flash lanes of fig9a's trace exist to show.
grep -q 'PageProgrammed' "$out/fig9a.trace.json" \
    || { echo "artifact_digest.sh: fig9a trace lost its PageProgrammed markers" >&2; exit 1; }
# Likewise the intervals the journal records as single events: the link's
# commands and the front-end's request spans each render as one slice.
grep -qF '"name":"link.cmd","ph":"X"' "$out/fig9a.trace.json" \
    || { echo "artifact_digest.sh: fig9a trace lost its link.cmd slices" >&2; exit 1; }
grep -qF '"name":"read","ph":"X"' "$out/fig9a.trace.json" \
    || { echo "artifact_digest.sh: fig9a trace lost its read request spans" >&2; exit 1; }

actual="$(cd "$out" && sha256sum -- * | LC_ALL=C sort -k2)"

if [[ "${1:-}" == "--bless" ]]; then
    # One `name: old → new` line per row whose digest moved (`-` for a row
    # that appears or goes), then how many rows were left unchanged.
    LC_ALL=C join -1 2 -2 2 -a 1 -a 2 -e - -o 0,1.1,2.1 \
        <(sed '/^#/d' "$digests") <(echo "$actual") \
        | awk '$2 != $3 { print $1 ": " $2 " → " $3; moved++; next } { kept++ }
               END { printf "artifact_digest.sh: %d rows moved, %d unchanged\n", moved, kept }'
    {
        echo "# generated by scripts/artifact_digest.sh --bless at commit $(git rev-parse HEAD)"
        echo "$actual"
    } > "$digests"
    echo "artifact_digest.sh: blessed $(wc -l <<< "$actual") digests into $digests"
    exit 0
fi

echo "$actual"
diff <(sed '/^#/d' "$digests") <(echo "$actual") >&2 || {
    echo "artifact_digest.sh: artifacts differ from $digests (< committed, > this checkout)" >&2
    exit 1
}
