//! The three system architectures of the NDS paper (§5.2, Fig. 7), plus the
//! software "oracle" configuration of §7.2.
//!
//! All four implement one trait, [`StorageFrontEnd`], so every workload is
//! written once and runs unchanged on each architecture — mirroring the
//! paper's methodology of modifying only the applications' I/O functions
//! (§6):
//!
//! * [`BaselineSystem`] — a conventional SSD (Fig. 7a): linear LBAs behind an
//!   FTL, data striped for sequential parallelism. Non-streaming access
//!   patterns pay \[P1\] (host marshalling), \[P2\] (small commands), and \[P3\]
//!   (idle channels).
//! * [`SoftwareNds`] — the STL runs on the host over a LightNVM-style
//!   physical interface (Fig. 7b): building blocks fix \[P3\] and batch
//!   commands, but object assembly still burns host CPU and memory
//!   bandwidth.
//! * [`HardwareNds`] — the STL runs in the device controller (Fig. 7c):
//!   one extended NVMe command per object, assembly inside the device at
//!   internal bandwidth, nothing but the finished object crosses the link.
//!
//! * [`OracleSystem`] — §7.2's exhaustive-search software alternative: the
//!   dataset is pre-tiled on a baseline SSD in exactly the consumer's
//!   request granularity, giving zero host overhead for those requests (at
//!   the cost of one stored copy per distinct view).
//!
//! All four are one [`FlashSystem`] — the same flash device and link,
//! dataset table, command lifecycle and front-end impl — at four
//! [`Placement`]s of translation: [`Conventional`] (the FTL), [`Host`] and
//! [`Controller`] (the STL), and [`Pretiled`] (the FTL under a layout
//! chosen offline).
//!
//! Every operation returns an outcome with a latency *breakdown* (device,
//! interconnect, host CPU, controller), which the benches use to regenerate
//! the paper's stacked-cost figures.
//!
//! # Example
//!
//! ```
//! use nds_core::{ElementType, Shape};
//! use nds_system::{HardwareNds, StorageFrontEnd, SystemConfig};
//!
//! # fn main() -> Result<(), nds_system::SystemError> {
//! let mut sys = HardwareNds::new(SystemConfig::small_test());
//! let shape = Shape::new([64, 64]);
//! let id = sys.create_dataset(shape.clone(), ElementType::F32)?;
//! let data = vec![1u8; 64 * 64 * 4];
//! sys.write(id, &shape, &[0, 0], &[64, 64], &data)?;
//! let out = sys.read(id, &shape, &[1, 1], &[32, 32])?;
//! assert_eq!(out.data.len(), 32 * 32 * 4);
//! assert!(out.io_latency > nds_sim::SimDuration::ZERO);
//! # Ok(())
//! # }
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

mod baseline;
mod cluster;
mod config;
mod controller;
mod error;
mod flash_backend;
mod flash_system;
mod frontend;
mod hardware;
mod lifecycle;
mod oracle;
mod software;
mod tenants;

pub use baseline::{BaselineSystem, Conventional};
pub use cluster::{ClusterConfig, NdsCluster};
pub use config::SystemConfig;
pub use controller::{ControllerPipeline, HostStlPath};
pub use error::SystemError;
pub use flash_backend::FlashBackend;
pub use flash_system::{FlashSystem, Placement};
pub use frontend::{DatasetId, ReadMetrics, ReadOutcome, StorageFrontEnd, WriteOutcome};
pub use hardware::{Controller, HardwareNds};
pub use oracle::{OracleSystem, Pretiled};
pub use software::{Host, SoftwareNds};
pub use tenants::{
    tenant_pattern_byte, Arrival, Completion, Guarded, OpKind, TenantOp, TenantSet, TenantSpec,
    TrafficEngine,
};
