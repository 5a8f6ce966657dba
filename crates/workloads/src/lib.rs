//! The ten evaluation workloads of the NDS paper (Table 1), implemented with
//! *functional* kernels over the four system architectures.
//!
//! Each workload follows the paper's methodology (§6): the compute kernel is
//! identical across architectures; only the I/O functions differ, via the
//! shared [`nds_system::StorageFrontEnd`] trait. Datasets are synthesized by
//! seeded generators mirroring the artifact's generators (appendix A.3.4),
//! kernels compute real answers that tests validate against in-memory
//! references, and execution is pipelined block-by-block exactly as §6.2
//! describes — so both Fig. 10(a)'s end-to-end latency and Fig. 10(b)'s
//! kernel idle time fall out of the schedule.
//!
//! | Workload | Category | Data | Kernel |
//! |---|---|---|---|
//! | [`Bfs`] | graph traversal | 2-D adjacency | 1-D row scans |
//! | [`Sssp`] | graph traversal (Bellman-Ford) | 2-D weights | row panels |
//! | [`Gemm`] | linear algebra | 2-D matrices | 2-D tiles |
//! | [`Hotspot`] | physics simulation | 2-D grids | 2-D tiles + halo |
//! | [`KMeans`] | data mining | 2-D points | 1-D rows |
//! | [`Knn`] | data mining | 2-D points (shared with KMeans) | 1-D rows |
//! | [`PageRank`] | graph | 2-D adjacency | row panels |
//! | [`Conv2d`] | image processing | 2-D image | 2-D tiles + halo |
//! | [`Ttv`] | tensor algebra | 3-D tensor | 2-D slices |
//! | [`Tc`] | tensor algebra | 3-D tensor (shared with TTV) | 2-D slices |
//!
//! # Example
//!
//! ```
//! use nds_system::{HardwareNds, SystemConfig};
//! use nds_workloads::{Gemm, Workload, WorkloadParams};
//!
//! # fn main() -> Result<(), nds_system::SystemError> {
//! let params = WorkloadParams::tiny_test(7);
//! let gemm = Gemm::new(params);
//! let mut sys = HardwareNds::new(SystemConfig::small_test());
//! let run = gemm.run(&mut sys)?;
//! assert_eq!(run.checksum, gemm.reference_checksum());
//! assert!(run.total.as_nanos() > 0);
//! # Ok(())
//! # }
//! ```

#![warn(missing_docs)]
// The determinism contract's rules D1 and D3 (DESIGN.md "Determinism contract";
// the banned paths are in `clippy.toml`) hold outside test code.
#![cfg_attr(not(test), deny(clippy::disallowed_methods))]
#![forbid(unsafe_code)]

pub mod cluster;
pub mod data;
mod driver;
pub mod kernels;
mod params;
pub mod tenants;
mod workloads;

pub use driver::{stream_phase, BlockReads, PhaseOutcome, WorkloadRun};
pub use params::WorkloadParams;
pub use workloads::{
    all_workloads, Bfs, Conv2d, Gemm, Hotspot, KMeans, Knn, PageRank, Sssp, Tc, Ttv, Workload,
};
