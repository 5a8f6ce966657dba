//! Regenerates the **§7.3 overhead table**: the worst-case latency NDS adds
//! on single-page requests with no assembly, and the space the STL's lookup
//! structures occupy.
//!
//! Paper reference points: +41 µs (software NDS) and +17 µs (hardware NDS)
//! over the baseline; lookup structures ≤0.1% of storage capacity; both
//! comparable to a NAND page read (30–100 µs).
//!
//! Usage: `cargo run --release -p nds-bench --bin overhead`

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_bench::{header, row};
use nds_core::{ElementType, Shape};
use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};

fn main() {
    println!("# §7.3 — NDS overhead (worst case: single-page reads, no assembly)\n");
    let config = SystemConfig::paper_scale();
    let page = config.flash.geometry.page_size as u64;
    // A one-page-wide dataset: each row is exactly one page, and a one-row
    // read is a single-unit access with no assembly.
    let rows = 512u64;
    let width = page / 8; // f64 elements per page
    let shape = Shape::new([width, rows]);
    let data: Vec<u8> = (0..width * rows * 8).map(|i| (i % 251) as u8).collect();

    let mut base = BaselineSystem::new(config.clone());
    let mut sw = SoftwareNds::new(config.clone());
    let mut hw = HardwareNds::new(config.clone());
    let mut latencies = Vec::new();
    for sys in [
        &mut base as &mut dyn StorageFrontEnd,
        &mut sw as &mut dyn StorageFrontEnd,
        &mut hw as &mut dyn StorageFrontEnd,
    ] {
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .expect("create");
        sys.write(id, &shape, &[0, 0], &[width, rows], &data)
            .expect("write");
        // Average single-page read latency over a few rows.
        let mut total_ns = 0u64;
        let samples = 16;
        for r in 0..samples {
            let out = sys
                .read(id, &shape, &[0, r * 7 % rows], &[width, 1])
                .expect("read");
            total_ns += out.latency().as_nanos();
        }
        latencies.push((sys.name(), total_ns / samples));
    }

    header(&[
        "system",
        "single-page latency",
        "added vs baseline",
        "paper",
    ]);
    let baseline_ns = latencies[0].1;
    for (name, ns) in &latencies {
        let added = ns.saturating_sub(baseline_ns);
        let paper = match *name {
            "software-nds" => "+41 us",
            "hardware-nds" => "+17 us",
            _ => "—",
        };
        row(&[
            (*name).to_owned(),
            format!("{:.1} us", *ns as f64 / 1000.0),
            format!("+{:.1} us", added as f64 / 1000.0),
            paper.to_owned(),
        ]);
    }

    // Space overhead: translation structures vs stored payload, on a
    // fully-written large space.
    println!("\n## STL lookup-structure space overhead (paper: ≤0.1% of storage)\n");
    let mut sw = SoftwareNds::new(config);
    let n = 4096u64;
    let big = Shape::new([n, n]);
    let payload: Vec<u8> = vec![0xA5; (n * n * 8) as usize];
    let id = sw
        .create_dataset(big.clone(), ElementType::F64)
        .expect("create");
    sw.write(id, &big, &[0, 0], &[n, n], &payload)
        .expect("write");
    let meta = sw.stl().translation_bytes();
    let stored = n * n * 8;
    header(&["stored payload", "translation metadata", "overhead"]);
    row(&[
        format!("{} MiB", stored / 1024 / 1024),
        format!("{:.1} KiB", meta as f64 / 1024.0),
        format!("{:.3}%", meta as f64 / stored as f64 * 100.0),
    ]);
}
