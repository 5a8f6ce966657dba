//! Simulation primitives shared by every timing model in the NDS reproduction.
//!
//! The NDS paper (MICRO 2021) evaluates storage architectures whose performance
//! is dominated by *resource occupancy*: flash channels and banks, the host
//! interconnect, CPU cores, and controller cores are each busy for computable
//! stretches of simulated time, and a request completes when the last resource
//! it crosses becomes free. This crate provides the small vocabulary those
//! models share:
//!
//! * [`SimTime`] / [`SimDuration`] — nanosecond-resolution simulated time.
//! * [`Resource`] — a serially-occupied resource with a next-free time and
//!   utilization accounting.
//! * [`ResourceSet`] — a bank of identical resources (e.g. 32 flash channels)
//!   with earliest-available and indexed scheduling.
//! * [`Stats`] — a lightweight named-counter registry used by devices and
//!   systems to report request/byte/traffic counts to the benches.
//! * [`Throughput`] — helpers to convert between byte volumes, durations, and
//!   effective bandwidths without sprinkling unit arithmetic through the code.
//! * [`obs`] — the deterministic observability layer: a typed event
//!   [`Journal`], fixed-log2-bucket [`LatencyHistogram`]s, windowed
//!   [`BusyTimeline`]s, and the serializable [`RunReport`] artifact. All
//!   hooks are zero-cost when disabled and schedule-neutral always.
//!
//! # Example
//!
//! ```
//! use nds_sim::{Resource, SimDuration, SimTime, Throughput};
//!
//! // A link that moves 1 GiB/s: transferring 2 MiB holds it for ~2 ms.
//! let mut link = Resource::new("link");
//! let hold = Throughput::bytes_per_sec(1 << 30).time_for_bytes(2 << 20);
//! let done = link.acquire(SimTime::ZERO, hold);
//! assert!(done > SimTime::ZERO + SimDuration::from_millis(1));
//! ```

#![warn(missing_docs)]
#![forbid(unsafe_code)]

pub mod obs;
mod resource;
mod stats;
mod time;

pub use obs::{
    record_command_partition, BusyTimeline, CommandTracer, ComponentId, Event, EventKind,
    Histograms, Journal, JournalSummary, LatencyHistogram, Mark, MetricSet, ObsConfig,
    Observability, RunReport, SeriesKind, SeriesSnapshot, TimelineSnapshot, TraceContext,
    TraceExport, TraceStage, TIMELINE_BUCKETS, TIMELINE_WINDOW,
};
pub use resource::{Resource, ResourceSet};
pub use stats::Stats;
pub use time::{SimDuration, SimTime, Throughput};
