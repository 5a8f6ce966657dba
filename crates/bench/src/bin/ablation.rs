//! Ablations of the design choices DESIGN.md calls out:
//!
//! 1. **Allocation policy** — the §4.2 channel-spreading rules vs. naive
//!    lane packing. The paper's whole \[P3\] argument rests on complete
//!    building blocks spanning every channel; packing forfeits that.
//! 2. **Building-block multiplier** — §4.1 allows any power-of-two multiple
//!    of the minimum block; the sweep shows how block size trades assembly
//!    granularity against coverage.
//! 3. **Faster NVM** — §7.2(4): "with faster NVM technologies that raise
//!    the internal-to-external bandwidth ratio, the advantage of hardware
//!    NDS will become more significant."
//!
//! Usage: `cargo run --release -p nds-bench --bin ablation [-- --report <path>]`
//!
//! With `--report <path>` each ablation point runs fully instrumented and
//! the merged run-report JSON is written to `path`.

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_bench::{announce_on_stderr, header, row, Artifacts};
use nds_core::{AllocationPolicy, ElementType, Shape};
use nds_flash::FlashTiming;
use nds_system::{HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};

const N: u64 = 4096;

fn tile_bandwidth(sys: &mut dyn StorageFrontEnd, side: u64) -> f64 {
    let shape = Shape::new([N, N]);
    let id = {
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .expect("create");
        let bytes: Vec<u8> = (0..N * N * 8).map(|i| (i % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[N, N], &bytes)
            .expect("write");
        id
    };
    sys.read(id, &shape, &[1, 1], &[side, side])
        .expect("tile read")
        .effective_bandwidth()
        .as_mib_per_sec()
}

fn allocation_policy_ablation(art: &mut Artifacts) {
    println!("## 1. Allocation policy (§4.2) — 1024² f64 tile fetch\n");
    header(&["policy", "hardware NDS MiB/s", "notes"]);
    for (policy, note) in [
        (AllocationPolicy::Paper, "blocks span all channels"),
        (
            AllocationPolicy::PackedLinear,
            "blocks confined to few lanes",
        ),
    ] {
        let mut config = SystemConfig::paper_scale().with_observability(art.obs());
        config.stl.allocation_policy = policy;
        let mut sys = HardwareNds::new(config);
        let bw = tile_bandwidth(&mut sys, 1024);
        art.absorb(&format!("alloc.{policy:?}"), &sys);
        row(&[format!("{policy:?}"), format!("{bw:8.0}"), note.to_owned()]);
    }
    println!();
}

fn multiplier_ablation(art: &mut Artifacts) {
    println!("## 2. Building-block multiplier (§4.1) — 1024² f64 tile fetch\n");
    header(&["multiplier", "block", "hardware NDS MiB/s"]);
    for multiplier in [1u64, 2, 4, 8] {
        let mut config = SystemConfig::paper_scale().with_observability(art.obs());
        config.stl.block_multiplier = multiplier;
        let mut sys = HardwareNds::new(config);
        let bw = tile_bandwidth(&mut sys, 1024);
        art.absorb(&format!("multiplier.{multiplier}x"), &sys);
        // Block side for f64 at this multiplier: √(128 KiB·m / 8), pow2-ceil.
        let elems = 32u64 * 4096 * multiplier / 8;
        let side = 1u64 << (64 - (elems - 1).leading_zeros()).div_ceil(2);
        row(&[
            format!("{multiplier}x"),
            format!("{side}x{side} f64"),
            format!("{bw:8.0}"),
        ]);
    }
    println!();
}

fn write_bandwidth(sys: &mut dyn StorageFrontEnd) -> f64 {
    let n = 2048u64;
    let shape = Shape::new([n, n]);
    let id = sys
        .create_dataset(shape.clone(), ElementType::F64)
        .expect("create");
    let bytes: Vec<u8> = (0..n * n * 8).map(|i| (i % 251) as u8).collect();
    sys.write(id, &shape, &[0, 0], &[n, n], &bytes)
        .expect("write")
        .effective_bandwidth()
        .as_mib_per_sec()
}

fn fast_nvm_ablation(art: &mut Artifacts) {
    println!("## 3. Faster NVM (§7.2) — hardware-over-software advantage on writes\n");
    println!("(the paper: \"with faster NVM technologies that raise the internal-to-external");
    println!(" bandwidth ratio, the advantage of hardware NDS will become more significant\")\n");
    header(&[
        "medium",
        "software NDS MiB/s",
        "hardware NDS MiB/s",
        "hw / sw",
    ]);
    for (name, key, timing) in [
        ("TLC NAND", "tlc", FlashTiming::tlc_nand()),
        ("fast NVM (PCM-class)", "fast", FlashTiming::fast_nvm()),
    ] {
        let mut config = SystemConfig::paper_scale().with_observability(art.obs());
        config.flash.timing = timing;
        let mut sw = SoftwareNds::new(config.clone());
        let sw_bw = write_bandwidth(&mut sw);
        let mut hw = HardwareNds::new(config);
        let hw_bw = write_bandwidth(&mut hw);
        art.absorb(&format!("nvm.{key}.software-nds"), &sw);
        art.absorb(&format!("nvm.{key}.hardware-nds"), &hw);
        row(&[
            name.to_owned(),
            format!("{sw_bw:8.0}"),
            format!("{hw_bw:8.0}"),
            format!("{:.2}x", hw_bw / sw_bw),
        ]);
    }
}

fn transfer_chunk_ablation(art: &mut Artifacts) {
    println!("\n## 4. NDS transfer chunk (§4.4) — when assembled data ships to the host\n");
    println!("(NDS starts moving assembled data once a segment reaches the optimal");
    println!(" data-exchange volume; §2.1 puts NVMe saturation at ~2 MB)\n");
    header(&["chunk", "hardware NDS MiB/s (4096x2048 fetch)"]);
    for chunk in [
        64u64 * 1024,
        256 * 1024,
        1024 * 1024,
        2 * 1024 * 1024,
        8 * 1024 * 1024,
    ] {
        let mut config = SystemConfig::paper_scale().with_observability(art.obs());
        config.nds_transfer_chunk = chunk;
        let mut sys = HardwareNds::new(config);
        let shape = Shape::new([N, N]);
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .expect("create");
        let bytes: Vec<u8> = (0..N * N * 8).map(|i| (i % 251) as u8).collect();
        sys.write(id, &shape, &[0, 0], &[N, N], &bytes)
            .expect("write");
        let out = sys
            .read(id, &shape, &[0, 1], &[N, 2048])
            .expect("panel fetch");
        art.absorb(&format!("chunk.{}kib", chunk / 1024), &sys);
        row(&[
            format!("{} KiB", chunk / 1024),
            format!("{:8.0}", out.effective_bandwidth().as_mib_per_sec()),
        ]);
    }
}

fn main() {
    let (mut art, _rest) = Artifacts::from_args(std::env::args().skip(1).collect());
    art.report.set_meta("bench", "ablation");
    println!("# Ablations of NDS design choices\n");
    allocation_policy_ablation(&mut art);
    multiplier_ablation(&mut art);
    fast_nvm_ablation(&mut art);
    transfer_chunk_ablation(&mut art);
    art.write(announce_on_stderr).expect("write artifacts");
}
