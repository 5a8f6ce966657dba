//! Regenerates **Fig. 3** of the paper: effective data-processing rates and
//! I/O bandwidths of the system components as a function of matrix size.
//!
//! Paper reference points: CUDA cores peak at 2048×2048, Tensor Cores at
//! 512×512 (an order of magnitude above the CUDA cores); the 32-channel
//! datacenter SSD reaches its full internal bandwidth around 512×512
//! fetches (4-byte elements, sequential), the 8-channel consumer SSD
//! saturates its (lower) external bandwidth at similar sizes, and NVMeoF
//! saturates once transfers exceed ~2 MB.
//!
//! Usage: `cargo run --release -p nds-bench --bin fig3`

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_accel::ComputeEngine;
use nds_bench::{header, row};
use nds_flash::{FlashConfig, FlashDevice, PageAddr};
use nds_interconnect::{Link, LinkConfig};
use nds_sim::SimTime;

/// Sequential internal read bandwidth of `config` for a transfer of `bytes`:
/// pages striped round-robin over channels, completion = device drain.
fn internal_bandwidth(config: &FlashConfig, bytes: u64) -> f64 {
    let mut device = FlashDevice::new(config.clone());
    let g = *device.geometry();
    let pages = (bytes.div_ceil(g.page_size as u64) as usize).min(g.total_pages());
    let addrs: Vec<PageAddr> = (0..pages)
        .map(|i| PageAddr {
            channel: i % g.channels,
            bank: (i / g.channels) % g.banks_per_channel,
            block: (i / (g.channels * g.banks_per_channel)) % g.blocks_per_bank,
            page: i / (g.channels * g.banks_per_channel * g.blocks_per_bank),
        })
        .collect();
    let done = device
        .schedule_reads(&addrs, SimTime::ZERO)
        .expect("addresses inside the geometry");
    // Rate over the bytes actually scheduled (requests beyond device
    // capacity wrap in reality; the steady-state rate is the same).
    let scheduled = pages as u64 * g.page_size as u64;
    scheduled as f64 / done.saturating_since(SimTime::ZERO).as_secs_f64() / (1024.0 * 1024.0)
}

/// External bandwidth: the device stream capped by the interconnect.
fn external_bandwidth(config: &FlashConfig, link_cfg: LinkConfig, bytes: u64) -> f64 {
    let internal = internal_bandwidth(config, bytes);
    let link = Link::new(link_cfg)
        .effective_bandwidth(bytes)
        .as_mib_per_sec();
    internal.min(link)
}

fn main() {
    println!("# Fig. 3 — effective processing rates / bandwidths vs matrix size");
    println!("# paper: CUDA optimum 2048², TC optimum 512² (≫ CUDA); NVMeoF saturates ~2 MB\n");
    let cuda = ComputeEngine::cuda_cores();
    let tc = ComputeEngine::tensor_cores();
    let nvmeof = Link::new(LinkConfig::nvmeof_40g());
    let datacenter = FlashConfig::datacenter_32ch();
    let consumer = FlashConfig::consumer_8ch();

    header(&[
        "matrix",
        "CUDA cores MiB/s",
        "Tensor cores MiB/s",
        "NVMeoF MiB/s",
        "32-ch SSD internal MiB/s",
        "8-ch SSD external MiB/s",
    ]);
    let mut n = 32u64;
    while n <= 16384 {
        let bytes = n * n * 4; // 4-byte elements, as in the paper's sweep
        row(&[
            format!("{n}x{n}"),
            format!("{:9.1}", cuda.rate(n).as_mib_per_sec()),
            format!("{:9.1}", tc.rate(n).as_mib_per_sec()),
            format!("{:9.1}", nvmeof.effective_bandwidth(bytes).as_mib_per_sec()),
            format!("{:9.1}", internal_bandwidth(&datacenter, bytes)),
            format!(
                "{:9.1}",
                external_bandwidth(&consumer, LinkConfig::nvmeof_40g(), bytes)
            ),
        ]);
        n *= 2;
    }
    println!(
        "\n(peaks: CUDA at {}, TC at {})",
        cuda.optimal_tile(),
        tc.optimal_tile()
    );
}
