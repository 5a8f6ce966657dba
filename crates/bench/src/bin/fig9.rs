//! Regenerates **Fig. 9** of the paper: the microbenchmarks of §7.1 on a
//! 2-D f64 matrix (the paper uses 32,768²; we default to 8,192² — ¼ linear
//! scale — with the same 256×256 f64 building blocks).
//!
//! * **(a)** row fetches: baseline ≈ hardware NDS; software NDS ~12% lower
//!   (4.3 vs 3.8 GB/s in the paper).
//! * **(b)** column fetches: row-store baseline collapses (≤0.6 GB/s);
//!   NDS performs like a column-store baseline.
//! * **(c)** submatrix fetches: NDS far outperforms the baseline.
//! * **(d)** whole-matrix writes: baseline ~281 MB/s; software NDS −30%;
//!   hardware NDS −17%.
//!
//! Usage: `cargo run --release -p nds-bench --bin fig9 [-- a|b|c|d] [--report <path>]`
//!
//! With `--report <path>` the systems run fully instrumented (event
//! journals, latency histograms, busy timelines) and the merged
//! [`RunReport`](nds_sim::RunReport) JSON is written to `path` —
//! byte-identical across repeated runs.

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_bench::{announce_on_stderr, header, row, setup_matrix_f64, Artifacts};
use nds_core::{ElementType, Shape};
use nds_sim::ObsConfig;
use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};

const N: u64 = 8192;

fn mib(v: f64) -> String {
    format!("{v:8.0}")
}

fn fresh_systems(obs: ObsConfig) -> (BaselineSystem, SoftwareNds, HardwareNds) {
    let config = SystemConfig::paper_scale().with_observability(obs); // 4× blocks ⇒ 256×256 f64
    (
        BaselineSystem::new(config.clone()),
        SoftwareNds::new(config.clone()),
        HardwareNds::new(config),
    )
}

/// Folds the three systems' run artifacts into `art` under
/// `<panel>.<arch>` labels.
fn absorb_systems(
    art: &mut Artifacts,
    panel: &str,
    (base, sw, hw): (&BaselineSystem, &SoftwareNds, &HardwareNds),
) {
    art.absorb(&format!("{panel}.baseline"), base);
    art.absorb(&format!("{panel}.software-nds"), sw);
    art.absorb(&format!("{panel}.hardware-nds"), hw);
}

/// Runs one read sweep over all three systems and prints MiB/s per point.
fn read_sweep(
    label: &str,
    panel: &str,
    art: &mut Artifacts,
    requests: &[(String, Vec<u64>, Vec<u64>)],
) {
    println!("\n## ({label})\n");
    let shape = Shape::new([N, N]);
    let (mut base, mut sw, mut hw) = fresh_systems(art.obs());
    let base_id = setup_matrix_f64(&mut base, N).expect("baseline setup");
    let sw_id = setup_matrix_f64(&mut sw, N).expect("software setup");
    let hw_id = setup_matrix_f64(&mut hw, N).expect("hardware setup");
    header(&[
        "request",
        "baseline MiB/s",
        "software NDS MiB/s",
        "hardware NDS MiB/s",
    ]);
    for (name, coord, sub) in requests {
        let b = base
            .read(base_id, &shape, coord, sub)
            .expect("baseline read");
        let s = sw.read(sw_id, &shape, coord, sub).expect("software read");
        let h = hw.read(hw_id, &shape, coord, sub).expect("hardware read");
        row(&[
            name.clone(),
            mib(b.effective_bandwidth().as_mib_per_sec()),
            mib(s.effective_bandwidth().as_mib_per_sec()),
            mib(h.effective_bandwidth().as_mib_per_sec()),
        ]);
    }
    absorb_systems(art, panel, (&base, &sw, &hw));
}

fn fig_a(art: &mut Artifacts) {
    // Row panels of 512..4096 rows (full width), as in Fig. 9(a).
    let requests = [512u64, 1024, 2048, 4096]
        .iter()
        .map(|&rows| (format!("{rows} rows"), vec![0, 0], vec![N, rows]))
        .collect::<Vec<_>>();
    read_sweep(
        "a — row fetches; paper: baseline ≈ hardware, software ~12% lower",
        "a",
        art,
        &requests,
    );
}

fn fig_b(art: &mut Artifacts) {
    // Column panels of 512..4096 columns (full height).
    println!("\n## (b — column fetches; paper: row-store baseline ≤600 MB/s-class, NDS ≈ col-store baseline)\n");
    let shape = Shape::new([N, N]);
    let obs = art.obs();
    let (mut base, mut sw, mut hw) = fresh_systems(obs);
    let base_id = setup_matrix_f64(&mut base, N).expect("baseline setup");
    let sw_id = setup_matrix_f64(&mut sw, N).expect("software setup");
    let hw_id = setup_matrix_f64(&mut hw, N).expect("hardware setup");
    // The col-store baseline stores the transpose, so a column fetch is a
    // contiguous row fetch of the transposed dataset.
    let mut col_store = BaselineSystem::new(SystemConfig::paper_scale().with_observability(obs));
    let col_id = setup_matrix_f64(&mut col_store, N).expect("col-store setup");
    header(&[
        "request",
        "baseline(row-store)",
        "baseline(col-store)",
        "software NDS",
        "hardware NDS",
    ]);
    for cols in [512u64, 1024, 2048, 4096] {
        let b = base
            .read(base_id, &shape, &[0, 0], &[cols, N])
            .expect("row-store columns");
        let c = col_store
            .read(col_id, &shape, &[0, 0], &[N, cols])
            .expect("col-store columns (transposed layout)");
        let s = sw
            .read(sw_id, &shape, &[0, 0], &[cols, N])
            .expect("software");
        let h = hw
            .read(hw_id, &shape, &[0, 0], &[cols, N])
            .expect("hardware");
        row(&[
            format!("{cols} cols"),
            mib(b.effective_bandwidth().as_mib_per_sec()),
            mib(c.effective_bandwidth().as_mib_per_sec()),
            mib(s.effective_bandwidth().as_mib_per_sec()),
            mib(h.effective_bandwidth().as_mib_per_sec()),
        ]);
    }
    absorb_systems(art, "b", (&base, &sw, &hw));
    art.absorb("b.baseline-col-store", &col_store);
}

fn fig_c(art: &mut Artifacts) {
    // Square submatrices 512²..4096² at an unaligned-ish tile position.
    let requests = [512u64, 1024, 2048, 4096]
        .iter()
        .map(|&side| (format!("{side}x{side}"), vec![1, 1], vec![side, side]))
        .collect::<Vec<_>>();
    read_sweep(
        "c — submatrix fetches; paper: NDS far above baseline",
        "c",
        art,
        &requests,
    );
}

fn fig_d(art: &mut Artifacts) {
    println!(
        "\n## (d — whole-matrix write; paper: baseline ~281 MB/s, software −30%, hardware −17%)\n"
    );
    const WN: u64 = 4096;
    let shape = Shape::new([WN, WN]);
    let bytes: Vec<u8> = (0..WN * WN * 8).map(|i| (i % 251) as u8).collect();
    header(&["system", "write MiB/s", "vs baseline"]);
    let mut results = Vec::new();
    let (mut base, mut sw, mut hw) = fresh_systems(art.obs());
    for sys in [
        &mut base as &mut dyn StorageFrontEnd,
        &mut sw as &mut dyn StorageFrontEnd,
        &mut hw as &mut dyn StorageFrontEnd,
    ] {
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .expect("create");
        let out = sys
            .write(id, &shape, &[0, 0], &[WN, WN], &bytes)
            .expect("write");
        results.push((sys.name(), out.effective_bandwidth().as_mib_per_sec()));
    }
    let baseline_bw = results[0].1;
    for (name, bw) in results {
        row(&[
            name.to_owned(),
            mib(bw),
            format!("{:+.0}%", (bw / baseline_bw - 1.0) * 100.0),
        ]);
    }
    absorb_systems(art, "d", (&base, &sw, &hw));
}

fn main() {
    let (mut art, rest) = Artifacts::from_args(std::env::args().skip(1).collect());
    art.report.set_meta("bench", "fig9");
    println!("# Fig. 9 — §7.1 microbenchmarks ({N}×{N} f64, 256×256 f64 building blocks)");
    match rest.first().map(String::as_str) {
        Some("a") => fig_a(&mut art),
        Some("b") => fig_b(&mut art),
        Some("c") => fig_c(&mut art),
        Some("d") => fig_d(&mut art),
        _ => {
            fig_a(&mut art);
            fig_b(&mut art);
            fig_c(&mut art);
            fig_d(&mut art);
        }
    }
    art.write(announce_on_stderr).expect("write artifacts");
}
