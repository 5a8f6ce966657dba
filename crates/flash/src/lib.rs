//! A functional + timing model of the NAND-flash SSD substrate that the NDS
//! paper (MICRO 2021) builds on.
//!
//! The paper's prototype is a TLC-NAND SSD with 32 parallel channels, 8 banks
//! per channel, and 4 KB pages (§6.1). Its performance claims hinge on how a
//! data layout exercises *channel-level* and *bank-level* parallelism
//! (§2.1 \[P3\]): a request whose pages hit all channels streams at the device's
//! full internal bandwidth, while a request confined to a channel subset — the
//! fate of submatrix fetches under conventional LBA striping (Fig. 1) — wastes
//! the rest.
//!
//! This crate reproduces that substrate with two coupled layers:
//!
//! * **Functional**: every page stores real bytes ([`FlashDevice`] is a page
//!   store), pages obey NAND rules (program-once, erase per block), and wear
//!   counters track erases.
//! * **Timing**: page reads occupy a bank for the array-read latency and a
//!   channel for the bus transfer ([`FlashTiming`]); the device schedules
//!   batches with resource-occupancy accounting so channel/bank conflicts and
//!   pipelining fall out naturally.
//!
//! The crate also provides the **baseline FTL** ([`Ftl`]) — the conventional
//! linear-LBA indirection layer that stripes consecutive logical pages across
//! channels and garbage-collects out-of-place updates. The NDS space
//! translation layer (crate `nds-core`) *replaces* this FTL in both NDS
//! architectures. Both keep their keys bound to live pages through the one
//! [`PageMapper`], which owns garbage collection, block evacuation and
//! read-disturb service.
//!
//! # Example
//!
//! ```
//! use nds_flash::{FlashConfig, FlashDevice, PageAddr};
//! use nds_sim::SimTime;
//!
//! let mut dev = FlashDevice::new(FlashConfig::small_test());
//! let page = PageAddr { channel: 0, bank: 0, block: 0, page: 0 };
//! let page_size = dev.geometry().page_size;
//! dev.program(page, vec![7u8; page_size]).unwrap();
//! assert_eq!(dev.read(page).unwrap()[0], 7);
//!
//! // Timing: a batch that spans all channels completes in about one page time.
//! let batch: Vec<PageAddr> = (0..dev.geometry().channels)
//!     .map(|c| PageAddr { channel: c, bank: 0, block: 0, page: 0 })
//!     .collect();
//! let done = dev.schedule_reads(&batch, SimTime::ZERO).unwrap();
//! assert!(done > SimTime::ZERO);
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

mod device;
mod error;
mod ftl;
mod geometry;
mod mapper;
mod timing;

pub use device::{FlashDevice, LaneBusy, PageState};
pub use error::FlashError;
pub use ftl::{Ftl, FtlConfig};
pub use geometry::{BlockAddr, FlashGeometry, PageAddr};
pub use mapper::{DenseIndex, ForwardIndex, MapperLabels, PageMapper, SparseIndex};
pub use timing::FlashTiming;

use serde::{Deserialize, Serialize};

/// Complete configuration of a flash device: geometry plus timing.
///
/// Presets mirror the devices the paper measures: the 32-channel
/// datacenter-class prototype (§6.1) and an 8-channel consumer-class NVMe SSD
/// (Fig. 3).
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct FlashConfig {
    /// Physical organization (channels/banks/blocks/pages).
    pub geometry: FlashGeometry,
    /// Latency and bus-bandwidth parameters.
    pub timing: FlashTiming,
}

impl FlashConfig {
    /// The paper's prototype: 32 channels × 8 banks, 4 KB pages (§6.1),
    /// scaled block counts so tests stay fast while ratios are preserved.
    pub fn datacenter_32ch() -> Self {
        FlashConfig {
            geometry: FlashGeometry {
                channels: 32,
                banks_per_channel: 8,
                blocks_per_bank: 64,
                pages_per_block: 64,
                page_size: 4096,
            },
            timing: FlashTiming::tlc_nand(),
        }
    }

    /// The consumer-class comparison device of Fig. 3: 8 channels.
    pub fn consumer_8ch() -> Self {
        FlashConfig {
            geometry: FlashGeometry {
                channels: 8,
                banks_per_channel: 4,
                blocks_per_bank: 64,
                pages_per_block: 64,
                page_size: 4096,
            },
            timing: FlashTiming::tlc_nand(),
        }
    }

    /// A tiny geometry for unit tests: 4 channels × 2 banks, 512 B pages.
    pub fn small_test() -> Self {
        FlashConfig {
            geometry: FlashGeometry {
                channels: 4,
                banks_per_channel: 2,
                blocks_per_bank: 8,
                pages_per_block: 8,
                page_size: 512,
            },
            timing: FlashTiming::tlc_nand(),
        }
    }
}
