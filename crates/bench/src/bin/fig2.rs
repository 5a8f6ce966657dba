//! Regenerates **Fig. 2** of the paper: the motivation experiment — blocked
//! matrix multiplication with row-store inputs vs sub-block inputs.
//!
//! * **(a)** data already in main memory: the row-store pipeline needs an
//!   extra CPU stage to form the kernel's submatrices; the paper measures
//!   2.11× the sub-block configuration's time.
//! * **(b)** data fetched from the SSD: the row-store layout additionally
//!   underutilizes the interconnect and the device's channels; the paper
//!   measures 1.92× more fetch time than an optimal (sub-block) layout.
//!
//! Usage: `cargo run --release -p nds-bench --bin fig2 [-- --report <path>]`
//!
//! With `--report <path>` the SSD-backed configuration of panel (b) runs
//! fully instrumented and the merged run-report JSON is written to `path`.

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_accel::ComputeEngine;
use nds_bench::{announce_on_stderr, header, row, setup_matrix_f64, Artifacts};
use nds_core::Shape;
use nds_host::pipeline::{self, StageTimes};
use nds_host::{CpuModel, MemoryBus};
use nds_interconnect::LinkConfig;
use nds_sim::{Journal, SimDuration, TraceExport};
use nds_system::{BaselineSystem, OracleSystem, StorageFrontEnd, SystemConfig};

/// Matrix side (scaled from the paper's 32,768) and kernel tile (scaled
/// from 8,192) — the same 4× blocking ratio.
const N: u64 = 8192;
const TILE: u64 = 2048;

fn stage_report(label: &str, stages: &[(&str, SimDuration)], total: SimDuration) {
    let cells: Vec<String> = std::iter::once(label.to_owned())
        .chain(stages.iter().map(|(n, d)| format!("{n} {d}")))
        .chain(std::iter::once(format!("total {total}")))
        .collect();
    row(&cells);
}

/// Runs one panel-(a) pipeline configuration, journaling every stage
/// interval when `tracing`, and returns the schedule plus (if traced) a
/// host-only [`TraceExport`]: the pipeline has no flash lanes, so the
/// channel/bank tables stay empty and the makespan is the end-to-end time.
fn run_pipeline(
    blocks: &[StageTimes],
    tracing: bool,
) -> (pipeline::PipelineResult, Option<TraceExport>) {
    let mut journal = if tracing {
        Journal::enabled(4096)
    } else {
        Journal::disabled(0)
    };
    let result = pipeline::run_journaled(blocks, &["marshal", "h2d", "kernel"], &mut journal);
    let export = tracing.then(|| TraceExport {
        events: journal.events().filter(|e| e.trace != 0).copied().collect(),
        channels: Vec::new(),
        banks: Vec::new(),
        makespan: result.total,
        tenants: Vec::new(),
    });
    (result, export)
}

fn fig_a(art: &mut Artifacts) {
    println!(
        "## (a) data already in main memory — paper: row-store takes 2.11× the sub-block time\n"
    );
    let cpu = CpuModel::ryzen_3700x();
    let engine = ComputeEngine::tensor_cores().with_optimum_scaled((65536 / N).max(1));
    let h2d = LinkConfig::pcie3_x16();
    let tiles = N / TILE;
    let tile_bytes = TILE * TILE * 8;
    // Per kernel launch the pipeline moves two input tiles.
    let marshal = cpu.scatter_copy_time(TILE * 2, tile_bytes * 2);
    let h2d_time = h2d.per_command + h2d.peak.time_for_bytes(tile_bytes * 2);
    let kernel = engine.kernel_time(tile_bytes * 2, TILE);
    let steps = (tiles * tiles * tiles) as usize;

    let seq: Vec<StageTimes> = (0..steps)
        .map(|_| StageTimes::new([marshal, h2d_time, kernel]))
        .collect();
    let sub: Vec<StageTimes> = (0..steps)
        .map(|_| StageTimes::new([SimDuration::ZERO, h2d_time, kernel]))
        .collect();
    let tracing = art.obs().tracing();
    let (seq_run, seq_trace) = run_pipeline(&seq, tracing);
    let (sub_run, sub_trace) = run_pipeline(&sub, tracing);
    if let Some(export) = seq_trace {
        art.traces.push(("a.row-store".to_string(), export));
    }
    if let Some(export) = sub_trace {
        art.traces.push(("a.sub-block".to_string(), export));
    }
    header(&["configuration", "CPU stage", "H2D", "kernel", "end-to-end"]);
    stage_report(
        "row-store/sequential",
        &[("marshal", marshal), ("h2d", h2d_time), ("kernel", kernel)],
        seq_run.total,
    );
    stage_report(
        "sub-block",
        &[
            ("marshal", SimDuration::ZERO),
            ("h2d", h2d_time),
            ("kernel", kernel),
        ],
        sub_run.total,
    );
    println!(
        "\nrow-store / sub-block = {:.2}x (paper: 2.11x)",
        seq_run.total.as_secs_f64() / sub_run.total.as_secs_f64()
    );

    // §2.1 [P2]: the marshalling configuration also burns CPU-memory-bus
    // bandwidth — DMA in, copy (2x), DMA out vs. just DMA in and out.
    let mut seq_bus = MemoryBus::ddr4_dual_channel();
    seq_bus.dma(tile_bytes * 2);
    seq_bus.cpu_copy(tile_bytes * 2);
    seq_bus.dma(tile_bytes * 2);
    let mut sub_bus = MemoryBus::ddr4_dual_channel();
    sub_bus.dma(tile_bytes * 2);
    sub_bus.dma(tile_bytes * 2);
    println!(
        "memory-bus traffic per kernel launch: row-store {} MiB vs sub-block {} MiB ({:.1}x)\n",
        seq_bus.traffic_bytes() / 1024 / 1024,
        sub_bus.traffic_bytes() / 1024 / 1024,
        seq_bus.traffic_bytes() as f64 / sub_bus.traffic_bytes() as f64
    );
}

fn fig_b(art: &mut Artifacts) {
    println!(
        "## (b) data fetched from the SSD — paper: +1.92× fetch time for the row-store layout\n"
    );
    let config = SystemConfig::paper_scale().with_observability(art.obs());
    let shape = Shape::new([N, N]);

    // Row-store layout on the baseline SSD.
    let mut base = BaselineSystem::new(config.clone());
    let base_id = setup_matrix_f64(&mut base, N).expect("baseline setup");
    let b = base
        .read(base_id, &shape, &[1, 1], &[TILE, TILE])
        .expect("row-store tile fetch");

    // Optimal (sub-block) layout: the oracle stores kernel-shaped tiles.
    let mut oracle = OracleSystem::with_tile(config, vec![TILE, TILE]);
    let oracle_id = setup_matrix_f64(&mut oracle, N).expect("oracle setup");
    let o = oracle
        .read(oracle_id, &shape, &[1, 1], &[TILE, TILE])
        .expect("sub-block tile fetch");

    header(&["layout", "SSD fetch", "CPU restructure", "fetch ratio"]);
    row(&[
        "row-store/sequential".into(),
        format!("{}", b.io_latency),
        format!("{}", b.restructure),
        format!(
            "{:.2}x (paper: 1.92x)",
            b.io_latency.as_secs_f64() / o.io_latency.as_secs_f64()
        ),
    ]);
    row(&[
        "sub-block".into(),
        format!("{}", o.io_latency),
        format!("{}", o.restructure),
        "1.00x".into(),
    ]);
    art.absorb("b.baseline", &base);
    art.absorb("b.oracle", &oracle);
}

fn main() {
    let (mut art, _rest) = Artifacts::from_args(std::env::args().skip(1).collect());
    art.report.set_meta("bench", "fig2");
    println!("# Fig. 2 — blocked matrix multiplication, row-store vs sub-block\n");
    fig_a(&mut art);
    fig_b(&mut art);
    art.write(announce_on_stderr).expect("write artifacts");
}
