//! The repo benchmark: five workloads over the NDS simulator's public API,
//! four end-to-end metrics measured with tracing off, and a traced run that
//! attributes host time and modeled time to the layers (the crate names).
//! `README.md` defines every metric and workload and says why each is here.
//!
//! Host time is what the simulator takes to run; modeled time is what the
//! simulated hardware would take. Every number names which one it is.

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod compare;
pub mod harness;
pub mod json;
pub mod metrics;
pub mod probes;
pub mod process;
pub mod spanned;
pub mod spans;
pub mod stats;
pub mod workloads;
