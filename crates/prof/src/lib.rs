//! Critical-path profiling for NDS causal traces (DESIGN.md "Profiling and
//! critical-path attribution").
//!
//! The front-ends in `nds-system` can run with
//! [`ObsConfig::traced`](nds_sim::ObsConfig::traced), which threads a stable
//! per-command trace id through the host pipeline, the NVMe queue, the link,
//! and the flash channels, and records an *exact* latency partition per
//! command (the [`StageSpan`](nds_sim::EventKind::StageSpan) events). This
//! crate consumes the resulting [`TraceExport`](nds_sim::TraceExport)s:
//!
//! * [`chrome`] streams them as a Chrome trace-event JSON file — loadable in
//!   Perfetto or `chrome://tracing` — with the modeled
//!   [`SimTime`](nds_sim::SimTime) as the clock. The rendering is hand-rolled and
//!   deterministic: identical runs produce byte-identical files.
//! * [`analysis`] parses that same artifact back and computes, again
//!   deterministically, per-command critical-path attribution (verifying the
//!   invariant that queue + link + flash + restructure + other stage spans
//!   sum *exactly* to end-to-end latency), aggregate time-attribution
//!   shares, latency quantiles, and channel/bank parallelism metrics
//!   (busy shares, Jain's fairness index, effective parallelism).
//!
//! The `nds-prof` binary wires the two together: point it at a `--trace`
//! file written by a bench binary and it prints the analysis report,
//! exiting non-zero if any command violates the attribution invariant.

#![warn(missing_docs)]
// Panic policy (DESIGN.md "Panic policy"): outside test code every failure
// on this crate's paths is a typed error, and clippy holds that line. The
// determinism contract's rules D1, D2, D3 and D7's type half are clippy's
// too (DESIGN.md "Determinism contract"; the banned paths are in
// `clippy.toml`).
#![cfg_attr(
    not(test),
    deny(
        clippy::indexing_slicing,
        clippy::panic,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::panic_in_result_fn,
        clippy::missing_panics_doc,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]
#![forbid(unsafe_code)]

pub mod analysis;
pub mod chrome;
pub mod dashboard;

pub use analysis::{
    analyze, format_report, jain_milli, parse, CommandProfile, SystemAnalysis, SystemProfile,
};
pub use chrome::{render, write_trace};
pub use dashboard::{html_page, write_data_js};
