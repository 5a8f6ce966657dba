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
//!   busy-time accounting.
//! * [`ResourceSet`] — a bank of identical resources (e.g. 32 flash channels)
//!   with indexed scheduling.
//! * [`Stats`] — a lightweight named-counter registry used by devices and
//!   systems to report request/byte/traffic counts to the benches.
//! * [`Throughput`] — helpers to convert between byte volumes, durations, and
//!   effective bandwidths without sprinkling unit arithmetic through the code.
//! * [`obs`] — the deterministic observability layer: a typed event
//!   [`Journal`], fixed-log2-bucket [`LatencyHistogram`]s, windowed
//!   [`SeriesSnapshot`]s (metric series and resource busy timelines), and
//!   the serializable [`RunReport`] artifact. All hooks are zero-cost when
//!   disabled and schedule-neutral always.
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
// The determinism contract's rule D1 (DESIGN.md "Determinism contract";
// the banned paths are in `clippy.toml`) holds outside test code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![forbid(unsafe_code)]

pub mod obs;
mod resource;
mod stats;
mod time;

pub use obs::{
    push_json_string, record_command_partition, ArgValue, CommandTracer, ComponentId, Event,
    EventKind, Histograms, Journal, JournalSummary, LatencyHistogram, Mark, MetricSet, ObsConfig,
    Observability, RunReport, SeriesKind, SeriesSnapshot, TraceContext, TraceExport, TraceStage,
};
pub use resource::{Resource, ResourceSet};
pub use stats::Stats;
pub use time::{SimDuration, SimTime, Throughput};

/// SplitMix64 finalizer — a well-mixed 64-bit permutation, and the only
/// source of "randomness" in the seeded fault plans, the rendezvous
/// placement, the traffic engine and the workload mixes: a pure function
/// of its input, so every seeded decision replays exactly.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

#[cfg(test)]
mod tests {
    use super::splitmix64;

    #[test]
    fn splitmix64_known_answers() {
        // The first three outputs of the reference SplitMix64 generator
        // seeded with 0 (its state advances by the golden-ratio gamma).
        const GAMMA: u64 = 0x9E37_79B9_7F4A_7C15;
        assert_eq!(splitmix64(0), 0xE220_A839_7B1D_CDAF);
        assert_eq!(splitmix64(GAMMA), 0x6E78_9E6A_A1B9_65F4);
        assert_eq!(splitmix64(GAMMA.wrapping_mul(2)), 0x06C4_5D18_8009_454F);
    }
}
