//! System-wide configuration shared by all four architectures.

use crate::controller::{ControllerPipeline, HostStlPath};
use nds_core::StlConfig;
use nds_faults::FaultConfig;
use nds_flash::FlashConfig;
use nds_host::CpuModel;
use nds_interconnect::LinkConfig;
use nds_sim::{ObsConfig, SimDuration};
use serde::{Deserialize, Serialize};

/// Everything a system architecture needs: device, link, host, controller,
/// and STL parameters.
#[derive(Debug, Clone, PartialEq, Serialize, Deserialize)]
pub struct SystemConfig {
    /// The flash device (geometry + timing).
    pub flash: FlashConfig,
    /// The host↔device interconnect (NVMe/NVMeoF).
    pub link: LinkConfig,
    /// The host CPU cost model.
    pub cpu: CpuModel,
    /// The NDS controller's Fig. 8 pipeline (hardware NDS only; composes
    /// to the §7.3 worst-case 17 µs on 2-level spaces).
    pub controller: ControllerPipeline,
    /// STL parameters (block dimensionality/multiplier/seed).
    pub stl: StlConfig,
    /// The software-NDS host request path (§7.3 measures 41 µs worst-case
    /// added latency for its composition).
    pub sw_stl_path: HostStlPath,
    /// Link payload size at which NDS ships assembled data to the host
    /// ("as soon as a segment … reaches the optimal data-exchange volume",
    /// §4.4) — 2 MB saturates NVMe per §2.1.
    pub nds_transfer_chunk: u64,
    /// Deterministic media/link fault plan installed into the device and
    /// link at construction (`None` = fault-free; every preset is `None`).
    pub faults: Option<FaultConfig>,
    /// Observability configuration threaded into every timing component at
    /// construction (event journals, latency histograms, busy-time
    /// timelines, windowed metric series). Off in every preset; disabled
    /// hooks cost one branch.
    pub obs: ObsConfig,
}

impl SystemConfig {
    /// The paper's evaluation platform at full geometry (§6.1): 32-channel
    /// datacenter SSD, NVMeoF over a 40 Gbps NIC, Ryzen-class host,
    /// Stingray-class controller.
    pub fn paper_scale() -> Self {
        let mut flash = FlashConfig::datacenter_32ch();
        // TLC one-pass multi-page programming is millisecond-scale; 3 ms
        // calibrates the baseline's ≈300 MB/s-class effective write
        // bandwidth (§7.1 reports 281 MB/s).
        flash.timing.program_latency = SimDuration::from_millis(3);
        flash.timing.erase_latency = SimDuration::from_millis(10);
        SystemConfig {
            flash,
            link: LinkConfig::nvmeof_40g(),
            cpu: CpuModel::ryzen_3700x(),
            controller: ControllerPipeline::stingray(),
            stl: StlConfig {
                block_multiplier: 4, // the prototype's 256×256 f64 blocks
                ..StlConfig::default()
            },
            sw_stl_path: HostStlPath::linux_lightnvm(),
            nds_transfer_chunk: 2 * 1024 * 1024,
            faults: None,
            obs: ObsConfig::disabled(),
        }
    }

    /// Returns the configuration with every fixed per-request cost (link
    /// per-command overhead, host submission, STL lookup latencies) divided
    /// by `divisor`.
    ///
    /// Scaled-down reproductions shrink request payloads with the dataset,
    /// but physical per-command costs do not shrink — which would
    /// overcharge the request-heavy baseline relative to the paper's
    /// geometry. Dividing the fixed costs by the payload scale restores the
    /// paper's overhead-to-payload ratio; the Fig. 10 harness uses this
    /// with its dataset scale factor.
    ///
    /// # Panics
    ///
    /// Panics if `divisor` is zero.
    #[must_use]
    pub fn with_scaled_command_costs(mut self, divisor: u64) -> Self {
        assert!(divisor > 0, "divisor must be non-zero");
        self.link.per_command = self.link.per_command / divisor;
        self.cpu.io_submit = self.cpu.io_submit / divisor;
        self.sw_stl_path = self.sw_stl_path.scaled(divisor);
        self.controller = self.controller.scaled(divisor);
        self
    }

    /// A tiny geometry for unit tests (fast, but same structure).
    pub fn small_test() -> Self {
        SystemConfig {
            flash: FlashConfig {
                geometry: nds_flash::FlashGeometry {
                    channels: 8,
                    banks_per_channel: 4,
                    blocks_per_bank: 32,
                    pages_per_block: 32,
                    page_size: 512,
                },
                timing: nds_flash::FlashTiming::tlc_nand(),
            },
            stl: StlConfig::default(),
            nds_transfer_chunk: 64 * 1024,
            ..SystemConfig::paper_scale()
        }
    }

    /// Returns the configuration with a fault plan installed. Architectures
    /// built from it inject deterministic media and link faults and recover
    /// through retries, remaps, and preventive migration.
    #[must_use]
    pub fn with_faults(mut self, faults: FaultConfig) -> Self {
        self.faults = Some(faults);
        self
    }

    /// Returns the configuration with the given observability settings.
    /// Architectures built from it record typed events, latency histograms,
    /// and busy-time timelines into their [`RunReport`](nds_sim::RunReport)
    /// — provably without moving the modeled schedule
    /// (`crates/system/tests/obs_invariance.rs`).
    #[must_use]
    pub fn with_observability(mut self, obs: ObsConfig) -> Self {
        self.obs = obs;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn paper_scale_matches_prototype() {
        let c = SystemConfig::paper_scale();
        assert_eq!(c.flash.geometry.channels, 32);
        assert_eq!(c.flash.geometry.banks_per_channel, 8);
        assert_eq!(c.flash.geometry.page_size, 4096);
        assert_eq!(c.stl.block_multiplier, 4);
    }

    #[test]
    fn internal_exceeds_external_bandwidth() {
        // §7.2: internal-to-external ratio must favor the inside. Each
        // channel streams page transfers back to back while bank reads
        // overlap, so the device reads at `channels × channel_bus`.
        let c = SystemConfig::paper_scale();
        let internal = c
            .flash
            .timing
            .channel_bus
            .scaled(c.flash.geometry.channels as f64);
        assert!(internal.bytes_per_sec_f64() > c.link.peak.bytes_per_sec_f64());
        let assembler = crate::hardware::Controller::ASSEMBLE_BANDWIDTH;
        assert!(assembler.bytes_per_sec_f64() > c.link.peak.bytes_per_sec_f64());
    }
}
