//! `nds-prof` — the critical-path profiler CLI.
//!
//! Usage: `nds-prof <trace.json>` — analyze a causal trace written by a
//! bench binary's `--trace <path>` flag (see EXPERIMENTS.md). Prints
//! per-system attribution, quantiles, and channel-parallelism metrics,
//! then a cross-system comparison. Exits with status 1 if any command
//! violates the attribution invariant (stage spans must sum exactly to
//! end-to-end latency), status 2 on usage or parse errors.

// Rule D1 (DESIGN.md "Determinism contract") covers this binary too; its
// one exception is the argv read below.
#![deny(clippy::disallowed_methods)]

use std::process::ExitCode;

#[expect(
    clippy::disallowed_methods,
    reason = "D1: the operator CLI entry point reads its own argv"
)]
fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some(path) = args.first() else {
        eprintln!("usage: nds-prof <trace.json>");
        return ExitCode::from(2);
    };
    let text = match std::fs::read_to_string(path) {
        Ok(text) => text,
        Err(e) => {
            eprintln!("nds-prof: cannot read {path}: {e}");
            return ExitCode::from(2);
        }
    };
    let profiles = match nds_prof::parse(&text) {
        Ok(profiles) => profiles,
        Err(e) => {
            eprintln!("nds-prof: malformed trace: {e}");
            return ExitCode::from(2);
        }
    };
    let analyses: Vec<_> = profiles.iter().map(nds_prof::analyze).collect();
    print!("{}", nds_prof::format_report(&analyses));
    if analyses.iter().any(|a| !a.violations.is_empty()) {
        eprintln!("nds-prof: attribution invariant VIOLATED");
        return ExitCode::FAILURE;
    }
    ExitCode::SUCCESS
}
