//! The NDS **space translation layer (STL)** — the core contribution of
//! *NDS: N-Dimensional Storage* (MICRO 2021).
//!
//! Conventional storage exposes a linear address space and forces every
//! application to serialize its N-dimensional datasets along one dimension,
//! paying CPU marshalling cost (\[P1\]), wasting interconnect bandwidth on
//! small requests (\[P2\]), and leaving device channels idle when the access
//! pattern crosses the serialization order (\[P3\]). The STL replaces the
//! flash translation layer with a *multi-dimensional* mapping (§4):
//!
//! * Datasets are decomposed into **building blocks** — fixed-size N-D tiles
//!   whose basic access units (flash pages) are spread across *all* parallel
//!   channels (and banks for 3-D blocks), sized by equations (1)–(4)
//!   ([`BlockShape`]).
//! * A per-space **B-tree** with one level per dimension locates each
//!   building block's unit list ([`LocatorTree`]).
//! * The **space translator** remaps any application view — any
//!   dimensionality of the same total volume — onto the covered building
//!   blocks (equation (5), [`translator`]).
//! * The **allocation policy** of §4.2 picks units so a complete building
//!   block always spans all channels, preserving full internal bandwidth for
//!   arbitrary access patterns ([`BlockAllocator`]).
//!
//! The STL is purely *functional* here: it stores and assembles real bytes
//! through an [`NvmBackend`] and reports which units every request touched
//! ([`AccessReport`]). The timing consequences — how long those unit
//! accesses occupy channels and banks, and who pays for assembly — are the
//! business of the system architectures in the `nds-system` crate, exactly
//! as the paper separates the STL (§4) from its software/hardware placements
//! (§5).
//!
//! # Example
//!
//! ```
//! use nds_core::{DeviceSpec, ElementType, MemBackend, Shape, Stl, StlConfig};
//!
//! # fn main() -> Result<(), nds_core::NdsError> {
//! // A device with 8 channels, 4 banks, 512-byte units.
//! let backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 4096);
//! let mut stl = Stl::new(backend, StlConfig::default());
//!
//! // The producer stores a 64×64 matrix of f32 (dims fastest-varying first).
//! let space = stl.create_space(Shape::new([64, 64]), ElementType::F32)?;
//! let data: Vec<f32> = (0..64 * 64).map(|i| i as f32).collect();
//! stl.write(space, &Shape::new([64, 64]), &[0, 0], &[64, 64], bytemuckish(&data))?;
//!
//! // A consumer reads the [1, 0] 32×32 tile without any serialization code.
//! let (tile, report) = stl.read(space, &Shape::new([64, 64]), &[1, 0], &[32, 32])?;
//! assert_eq!(tile.len(), 32 * 32 * 4);
//! assert!(report.blocks.len() >= 1);
//! # Ok(())
//! # }
//! # fn bytemuckish(v: &[f32]) -> &[u8] {
//! #     unsafe { core::slice::from_raw_parts(v.as_ptr() as *const u8, v.len() * 4) }
//! # }
//! ```

#![warn(missing_docs)]
// Read assembly copies on several threads; disjoint `chunks_mut` borrows,
// not unsafe code, keep their bytes apart.
#![forbid(unsafe_code)]
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

mod alloc;
mod assembly;
mod backend;
mod block;
mod btree;
mod element;
mod error;
mod parts;
mod plan_cache;
mod shape;
mod space;
mod stl;
#[cfg(feature = "testing")]
pub mod testing;
pub mod translator;

pub use alloc::{AllocationPolicy, BlockAllocator};
pub use assembly::Assembler;
pub use backend::{DeviceSpec, MemBackend, NvmBackend, UnitLocation};
pub use block::{BlockDimensionality, BlockShape};
pub use btree::LocatorTree;
pub use element::ElementType;
pub use error::NdsError;
pub use parts::{in_parts, parts};
pub use plan_cache::{GeometryClass, PlanCache};
pub use shape::{Region, Shape};
pub use space::{Space, SpaceId};
pub use stl::{AccessReport, BlockAccess, Stl, StlConfig, WriteReport};
