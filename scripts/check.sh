#!/usr/bin/env bash
# CI hygiene gate: formatting, lints (warnings are errors), and the full
# workspace test suite.
#
# Usage: scripts/check.sh [--no-test]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# Determinism/invariant rules (DESIGN.md "Determinism contract") with the
# ratcheting lint-baseline.json: fails on any new violation or unratcheted
# improvement.
echo "== nds-lint (determinism contract)"
lint_json="$(mktemp)"
cargo run --quiet -p nds-lint -- --json "$lint_json" || { rm -f "$lint_json"; exit 1; }
grep -q '"version": 2' "$lint_json" \
    || { rm -f "$lint_json"; echo "check.sh: nds-lint --json did not emit a version-2 report" >&2; exit 1; }
rm -f "$lint_json"

echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

if [[ "${1:-}" != "--no-test" ]]; then
    echo "== cargo test --workspace"
    cargo test --workspace --quiet

    # Overflow-checked CI profile (release codegen + `overflow-checks =
    # true`): the WFQ finish-tag arithmetic and the multi-tenant QoS /
    # property suites must be wrap-free, not just lint-clean (rule D5).
    echo "== cargo test --profile ci (WFQ + tenant suites, overflow checks on)"
    cargo test --quiet --profile ci -p nds-interconnect
    cargo test --quiet --profile ci -p nds-system \
        --test wfq_qos --test tenant_isolation --test tenant_differential

    # Cross-architecture fault differential under pinned seeds: byte-identical
    # data vs the fault-free golden run, monotone modeled time, all faults
    # recovered. Seeds are fixed here so CI failures reproduce locally.
    echo "== fault differential (NDS_FAULT_SEEDS=17,424242,9000000001)"
    NDS_FAULT_SEEDS=17,424242,9000000001 \
        cargo test --quiet --release --test fault_differential

    # Report determinism: the same fully-instrumented run must serialize to
    # byte-identical RunReport JSON twice in a row.
    echo "== report determinism (fig9 a --report, twice)"
    report_dir="$(mktemp -d)"
    trap 'rm -rf "$report_dir"' EXIT
    cargo build --quiet --release -p nds-bench --bin fig9
    ./target/release/fig9 a --report "$report_dir/run1.json" > /dev/null
    ./target/release/fig9 a --report "$report_dir/run2.json" > /dev/null
    cmp "$report_dir/run1.json" "$report_dir/run2.json" \
        || { echo "check.sh: fig9 run reports differ between identical runs" >&2; exit 1; }

    # Trace determinism: the Chrome trace-event export (causal per-command
    # traces on the modeled clock) must also be byte-identical across
    # identical runs — nds-prof's attribution depends on it.
    echo "== trace determinism (fig9 a --trace, twice)"
    ./target/release/fig9 a --trace "$report_dir/trace1.json" > /dev/null
    ./target/release/fig9 a --trace "$report_dir/trace2.json" > /dev/null
    cmp "$report_dir/trace1.json" "$report_dir/trace2.json" \
        || { echo "check.sh: fig9 chrome traces differ between identical runs" >&2; exit 1; }

    # Multi-tenant determinism under a pinned seed: the 16-tenant mixed
    # open/closed run must produce byte-identical reports and traces (with
    # per-tenant Perfetto lanes) across two identical invocations.
    echo "== tenant determinism (tenants --seed 42 --report/--trace, twice)"
    cargo build --quiet --release -p nds-bench --bin tenants
    ./target/release/tenants --seed 42 \
        --report "$report_dir/tenants1.json" --trace "$report_dir/tenants1.trace.json" > /dev/null
    ./target/release/tenants --seed 42 \
        --report "$report_dir/tenants2.json" --trace "$report_dir/tenants2.trace.json" > /dev/null
    cmp "$report_dir/tenants1.json" "$report_dir/tenants2.json" \
        || { echo "check.sh: tenants run reports differ between identical runs" >&2; exit 1; }
    cmp "$report_dir/tenants1.trace.json" "$report_dir/tenants2.trace.json" \
        || { echo "check.sh: tenants chrome traces differ between identical runs" >&2; exit 1; }

    # Cluster determinism: the sharded multi-device bench replays the same
    # seeded mix healthy and with a device-kill fault plan; both runs' merged
    # reports (cluster + every device, `healthy.`/`degraded.` prefixes) and
    # the degraded run's per-device causal traces must be byte-identical
    # across two identical invocations — failover, re-replication and read
    # steering are all pure functions of (seed, plan).
    echo "== cluster determinism (cluster --seed 7 --report/--trace, twice)"
    cargo build --quiet --release -p nds-bench --bin cluster
    ./target/release/cluster --seed 7 \
        --report "$report_dir/cluster1.json" --trace "$report_dir/cluster1.trace.json" > /dev/null
    ./target/release/cluster --seed 7 \
        --report "$report_dir/cluster2.json" --trace "$report_dir/cluster2.trace.json" > /dev/null
    cmp "$report_dir/cluster1.json" "$report_dir/cluster2.json" \
        || { echo "check.sh: cluster run reports differ between identical runs" >&2; exit 1; }
    cmp "$report_dir/cluster1.trace.json" "$report_dir/cluster2.trace.json" \
        || { echo "check.sh: cluster chrome traces differ between identical runs" >&2; exit 1; }

    # Metrics determinism: the windowed-telemetry JSON and the static HTML
    # dashboard (page + data payload) must be byte-identical across two
    # identical instrumented runs — on a single-device point run and on the
    # cluster bench's device-kill fault plan (failover marks included).
    # Same file names in two directories: the dashboard HTML embeds its
    # sibling data.js *name*, so the artifacts are only comparable when
    # both runs write to identically-named outputs.
    echo "== metrics determinism (fig9 a + cluster --metrics/--dashboard, twice)"
    for i in 1 2; do
        mkdir -p "$report_dir/m$i"
        ./target/release/fig9 a \
            --metrics "$report_dir/m$i/fig9.json" --dashboard "$report_dir/m$i/fig9.html" > /dev/null
        ./target/release/cluster --seed 7 \
            --metrics "$report_dir/m$i/cluster.json" --dashboard "$report_dir/m$i/cluster.html" > /dev/null
    done
    for artifact in fig9.json fig9.html fig9.data.js cluster.json cluster.html cluster.data.js; do
        cmp "$report_dir/m1/$artifact" "$report_dir/m2/$artifact" \
            || { echo "check.sh: $artifact differs between identical runs" >&2; exit 1; }
    done
    grep -q 'failover_events' "$report_dir/m1/cluster.json" \
        || { echo "check.sh: cluster metrics JSON lost the failover series" >&2; exit 1; }

    # Artifact identity: every report, trace, metrics and dashboard artifact
    # of the figure, fault, tenant and cluster bins must hash to the digests
    # committed in scripts/artifact_digests.txt, so a refactor proves "no
    # artifact moved" instead of claiming it. A change that moves artifacts
    # on purpose re-blesses the file (scripts/artifact_digest.sh --bless).
    echo "== artifact identity (scripts/artifact_digest.sh)"
    scripts/artifact_digest.sh > /dev/null 2>"$report_dir/digest.err" \
        || { cat "$report_dir/digest.err" >&2; exit 1; }
fi

echo "check.sh: all green"
