//! The system interconnect and NVMe-style command set of the NDS prototype.
//!
//! Two of the paper's three performance problems live on the interconnect:
//!
//! * **\[P2\] Underutilization of interconnect bandwidth** (§2.1): every I/O
//!   command pays a fixed transaction overhead, so small requests cannot
//!   saturate the link — the paper measures that a modern NVMe interconnect
//!   saturates only when requests exceed ~2 MB and that 32 KB row fetches
//!   reach just 66% of peak. [`Link`] reproduces that curve with a
//!   per-command overhead plus a peak-bandwidth term.
//! * **The command interface itself** (§5.3.1): NDS extends NVMe with
//!   multi-dimensional read/write commands and three space-management
//!   commands (`open_space`, `close_space`, `delete_space`), distinguished by
//!   a reserved bit in the first command word. [`NvmeCommand`] models the
//!   full extended command set, including the paper's limits (coordinates up
//!   to 32 dimensions, 2²⁴ elements per dimension), and [`wire`] is the
//!   codec that packs a command into the words that cross the interface.
//!
//! # Example
//!
//! ```
//! use nds_interconnect::{Link, LinkConfig};
//! use nds_sim::SimTime;
//!
//! let mut link = Link::new(LinkConfig::nvmeof_40g());
//! // A 32 KB transfer achieves roughly two thirds of peak (paper §2.1 \[P2\])…
//! let small = link.effective_bandwidth(32 * 1024);
//! // …while a 2 MB transfer saturates the link.
//! let large = link.effective_bandwidth(2 * 1024 * 1024);
//! assert!(small.bytes_per_sec_f64() < 0.70 * link.config().peak.bytes_per_sec_f64());
//! assert!(large.bytes_per_sec_f64() > 0.95 * link.config().peak.bytes_per_sec_f64());
//! # let _ = link.transfer(4096, SimTime::ZERO);
//! ```

#![warn(missing_docs)]
// Panic policy (DESIGN.md "Panic policy"): outside test code every failure
// on this crate's paths is a typed error, and clippy holds that line. The
// determinism contract's rules D1, D2, D3 and D7 are clippy's too (DESIGN.md
// "Determinism contract"; the banned paths are in `clippy.toml`).
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
        clippy::disallowed_types,
        clippy::float_arithmetic
    )
)]
#![forbid(unsafe_code)]

mod command;
mod link;
mod wfq;
pub mod wire;

pub use command::{CommandError, NvmeCommand, SpaceId, MAX_DIMENSIONS, MAX_ELEMENTS_PER_DIM};
pub use link::{Link, LinkConfig, LinkError};
pub use wfq::{WfqError, WfqScheduler, COST_SCALE};
pub use wire::WireError;
