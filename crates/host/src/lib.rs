//! Host-side cost models for the NDS reproduction.
//!
//! Problem *\[P1\]* of the paper lives here: with a linear storage
//! abstraction, the host CPU must compute raw-offset↔object mappings, issue
//! an I/O request per data sliver, and copy every received chunk to its
//! place in the accelerator-shaped object. The cost of all of that is a
//! function of *how many* requests and *how many/ how large* the copies are
//! — quantities the storage front-ends report — and [`CpuModel`] turns them
//! into time.
//!
//! The crate also provides the [`pipeline`] executor used by every workload:
//! the paper's applications are "pipelined so that I/O and data
//! restructuring overlap with the I/O and data restructuring of the compute
//! kernels" (§6.2), and Fig. 10(b)'s *idle time before compute kernels*
//! metric is a property of exactly that pipeline schedule.
//!
//! # Example
//!
//! ```
//! use nds_host::CpuModel;
//!
//! let cpu = CpuModel::ryzen_3700x();
//! // Marshalling 1 MiB in 2 KiB scattered chunks costs much more than
//! // copying the same volume in 64 KiB chunks.
//! let small_chunks = cpu.scatter_copy_time(512, 1 << 20);
//! let large_chunks = cpu.scatter_copy_time(16, 1 << 20);
//! assert!(small_chunks > large_chunks * 2);
//! ```

#![warn(missing_docs)]
// The determinism contract's rules D1 and D3 (DESIGN.md "Determinism contract";
// the banned paths are in `clippy.toml`) hold outside test code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![forbid(unsafe_code)]

mod cpu;
mod membus;
pub mod pipeline;

pub use cpu::CpuModel;
pub use membus::MemoryBus;
pub use pipeline::{PipelineResult, StageTimes};
