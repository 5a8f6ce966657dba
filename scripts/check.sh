#!/usr/bin/env bash
# CI hygiene gate: formatting, lints and rustdoc (warnings are errors), and
# the pub-reach gate, and the full workspace test suite.
#
# Usage: scripts/check.sh [--no-test]
set -euo pipefail

cd "$(dirname "$0")/.."

echo "== cargo fmt --check"
cargo fmt --all --check

# Integration tests become modules of one `tests/suite/main.rs` per package:
# every top-level file in a `tests/` directory is a test binary of its own,
# compiled and linked against the whole stack. Only these files may stand
# alone; a new suite becomes a module of its package's suite.
echo "== test layout (one suite binary per package)"
layout_ok=(
    # The crate's only integration suite.
    crates/sim/tests/histogram_props.rs
    # Its counting `#[global_allocator]` would count every other suite too.
    crates/system/tests/alloc_ceiling.rs
    # Its counting `#[global_allocator]` would count every other suite too.
    crates/workloads/tests/footprint.rs
    # Not folded yet: a fold renames every test of the suite it moves, so
    # suites move a few at a time (ROADMAP item 20). Delete a line when its
    # file becomes a module; never add one.
    crates/flash/tests/no_unwind.rs
    crates/flash/tests/proptests.rs
    crates/interconnect/tests/wfq_props.rs
    crates/interconnect/tests/wire_fuzz.rs
    crates/system/tests/cache_invariance.rs
    crates/system/tests/cluster_differential.rs
    crates/system/tests/fault_recovery.rs
    crates/system/tests/obs_invariance.rs
    crates/workloads/tests/golden_checksums.rs
    crates/workloads/tests/kernel_equivalence.rs
)
stray=()
for f in crates/*/tests/*.rs tests/*.rs; do
    [[ -e "$f" ]] || continue
    [[ " ${layout_ok[*]} " == *" $f "* ]] || stray+=("$f")
done
if (( ${#stray[@]} )); then
    printf 'test binary outside a tests/suite/ module: %s\n' "${stray[@]}" >&2
    exit 1
fi

# Clippy is the one static gate. It holds the panic policy: `core`,
# `flash`, `interconnect`, `system` and `prof` deny indexing, `panic!`-family
# macros and undocumented panics crate-wide outside test code, and
# `[workspace.lints]` adds `unwrap_used` / `expect_used` (DESIGN.md "Panic
# policy"). It holds the determinism contract (DESIGN.md "Determinism
# contract"): D1 wall clock / environment and D3 runtime `from_nanos` via
# `disallowed_methods`, D2 hash collections and D7 floats via
# `disallowed_types` + `float_arithmetic`, D5 unchecked finish-tag
# arithmetic via `arithmetic_side_effects`, with the banned paths in
# `clippy.toml`. D6 (tenant guard first) is a type, checked by the build.
echo "== cargo clippy --workspace -- -D warnings"
cargo clippy --workspace --all-targets -- -D warnings

# Rustdoc is a gate too: a dead or private intra-doc link in public docs
# (one left by a rename, say) fails here rather than rotting.
echo "== cargo doc --workspace --no-deps (rustdoc warnings are errors)"
RUSTDOCFLAGS="-D warnings" cargo doc --workspace --no-deps --offline --quiet

# Every `pub fn` is reached by a run (product code, a bench bin, an example
# or a benchmark probe), or scripts/pub_reach_allow.txt names it with a
# reason. `unreachable_pub` cannot see an item a crate root re-exports.
echo "== pub-reach gate (scripts/pub_reach.sh)"
scripts/pub_reach.sh > /dev/null

if [[ "${1:-}" != "--no-test" ]]; then
    echo "== cargo test --workspace"
    cargo test --workspace --quiet

    # Overflow-checked CI profile (release codegen + `overflow-checks =
    # true`): the WFQ finish-tag arithmetic and the multi-tenant QoS /
    # property suites must be wrap-free, not just lint-clean (rule D5); so
    # must the scratch-reusing command path the allocation ceilings pin,
    # and the page mapper's narrowing of page indices to u32, which the
    # flash property suite drives through both of its instantiations; and
    # the read-assembly plan, whose span fields are narrowed to u32 at plan
    # build, which the translator oracle and the dirty-buffer read
    # properties drive on every read path; and the plan-cache key, which is
    # `u64` div / mod / mul on caller-supplied coordinates
    # (`translator::canonicalize`) that `check_request` must have bounded
    # first, which the relocation properties and `plan_cache_props` drive.
    echo "== cargo test --profile ci (WFQ + tenant + allocation-ceiling + page-mapper + read-assembly + plan-cache + workload-kernel suites, overflow checks on)"
    cargo test --quiet --profile ci -p nds-interconnect
    cargo test --quiet --profile ci -p nds-flash --test proptests
    cargo test --quiet --profile ci -p nds-core --test suite -- \
        translator_oracle:: read_assembly_props:: plan_cache_props::
    # A name filter applies to every `--test` target of its command line,
    # so the unfiltered allocation-ceiling binary runs on its own.
    cargo test --quiet --profile ci -p nds-system --test suite -- \
        wfq_qos:: tenant_isolation:: tenant_differential:: dirty_buffer_props::
    cargo test --quiet --profile ci -p nds-system --test alloc_ceiling
    # Read assembly copies a read of megabytes, and `gemm_tile` computes a
    # tile of side ≥ 162, in one part per core (`nds_core::parts`). Under a
    # one-CPU mask `available_parallelism` is 1, so the read-assembly suites
    # and the t = 256 kernel suites run again down the one-part path, with
    # no knob to turn.
    if command -v taskset > /dev/null; then
        echo "== one-part suites on one CPU: read assembly + tile GEMM (taskset -c 0)"
        taskset -c 0 cargo test --quiet --profile ci -p nds-core --test suite read_assembly_props::
        taskset -c 0 cargo test --quiet --profile ci -p nds-system --test suite dirty_buffer_props::
        taskset -c 0 cargo test --quiet --profile ci -p nds-system --test alloc_ceiling
        taskset -c 0 cargo test --quiet --profile ci -p nds-workloads \
            --test golden_checksums --test kernel_equivalence
    else
        echo "== one-part suites on one CPU: skipped, no taskset"
    fi
    # The functional kernels are bit-identical to their plain-loop reference
    # models (tests/kernel_equivalence.rs, golden_checksums.rs) — which has
    # to be shown under the codegen that vectorises them, and debug-mode
    # `cargo test --workspace` does not.
    cargo test --quiet --profile ci -p nds-workloads

    # Cross-architecture fault differential under pinned seeds: byte-identical
    # data vs the fault-free golden run, monotone modeled time, all faults
    # recovered. Seeds are fixed here so CI failures reproduce locally.
    echo "== fault differential (NDS_FAULT_SEEDS=17,424242,9000000001)"
    NDS_FAULT_SEEDS=17,424242,9000000001 \
        cargo test --quiet --release -p nds --test suite fault_differential::

    # Artifact identity: every report, trace and dashboard artifact
    # of the figure, fault, tenant and cluster bins must hash to the digests
    # committed in scripts/artifact_digests.txt, so a refactor proves "no
    # artifact moved" instead of claiming it. A change that moves artifacts
    # on purpose re-blesses the file (scripts/artifact_digest.sh --bless).
    # Fixed digests prove run-to-run determinism too: a nondeterministic
    # byte cannot match on every run.
    echo "== artifact identity (scripts/artifact_digest.sh)"
    digest_err="$(mktemp)"
    trap 'rm -f "$digest_err"' EXIT
    scripts/artifact_digest.sh > /dev/null 2>"$digest_err" \
        || { cat "$digest_err" >&2; exit 1; }

    # The repo benchmark builds against its own committed lock file (the
    # first thing benchmark/run.sh does): adding or removing a dependency of
    # a crate that lock lists, or breaking an item benchmark/src names,
    # fails here instead of in the pipeline.
    echo "== locked benchmark build (benchmark/Cargo.lock)"
    cargo build --quiet --release --offline --locked --manifest-path benchmark/Cargo.toml
    # The harness's own tests name front-end constructors as function items
    # in a `#[cfg(test)]` module, which the release build never compiles.
    echo "== locked benchmark tests"
    cargo test --quiet --offline --locked --manifest-path benchmark/Cargo.toml
fi

echo "check.sh: all green"
