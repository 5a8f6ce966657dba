//! Fault-injection sweep: recovery counters and modeled-time inflation per
//! architecture across rising fault rates.
//!
//! For each rate the same request script (full write, tile overwrite, tile
//! reads, full read) runs on all four architectures with a seeded
//! deterministic fault plan, and the harness reports what the fault
//! subsystem did: faults injected vs recovered, flash and link retries,
//! blocks retired, disturb migrations, and how much modeled time the
//! recovery work added over the fault-free run. Every row must show
//! `injected == recovered` — an unrecovered fault would have surfaced as a
//! typed error and aborted the run.
//!
//! Usage: `cargo run --release -p nds-bench --bin fault_sweep [seed] [--report <path>]`
//!
//! With `--report <path>` every rate×architecture run is fully instrumented
//! (fault and retry events land in the journal next to the latency
//! histograms they inflate) and the merged run-report JSON is written to
//! `path`.

// Figure-regeneration binaries are operator tools, not simulation
// data path: panicking on a malformed run is the right behavior.
#![allow(clippy::unwrap_used, clippy::expect_used)]
use nds_bench::{announce_on_stderr, header, row, Artifacts};
use nds_core::{ElementType, Shape};
use nds_faults::FaultConfig;
use nds_sim::SimDuration;
use nds_system::{
    BaselineSystem, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd, SystemConfig,
};

const RATES: [f64; 4] = [0.0, 0.02, 0.05, 0.10];
const N: u64 = 128;
const TILE: u64 = 32;

fn architectures(config: &SystemConfig) -> Vec<Box<dyn StorageFrontEnd>> {
    vec![
        Box::new(BaselineSystem::new(config.clone())),
        Box::new(SoftwareNds::new(config.clone())),
        Box::new(HardwareNds::new(config.clone())),
        Box::new(OracleSystem::with_tile(config.clone(), vec![TILE, TILE])),
    ]
}

/// Runs the fixed script on one system; returns total modeled time.
fn run_script(sys: &mut dyn StorageFrontEnd) -> SimDuration {
    let shape = Shape::new([N, N]);
    let full: Vec<u8> = (0..N * N * 4).map(|i| (i % 251) as u8).collect();
    let patch = vec![0xABu8; (TILE * TILE * 4) as usize];
    let id = sys
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let mut modeled = SimDuration::ZERO;
    let w = sys
        .write(id, &shape, &[0, 0], &[N, N], &full)
        .expect("write recovers");
    modeled += w.latency;
    let w = sys
        .write(id, &shape, &[1, 1], &[TILE, TILE], &patch)
        .expect("overwrite recovers");
    modeled += w.latency;
    for &(tx, ty) in &[(0u64, 0u64), (1, 2), (3, 3), (2, 1)] {
        let r = sys
            .read(id, &shape, &[tx, ty], &[TILE, TILE])
            .expect("tile read recovers");
        modeled += r.latency();
    }
    let r = sys
        .read(id, &shape, &[0, 0], &[N, N])
        .expect("full read recovers");
    modeled += r.latency();
    modeled
}

fn main() {
    let (mut art, rest) = Artifacts::from_args(std::env::args().skip(1).collect());
    let obs = art.obs();
    let seed: u64 = rest
        .first()
        .map(|s| s.parse().expect("seed must be a u64"))
        .unwrap_or(1221);
    art.report.set_meta("bench", "fault_sweep");
    art.report.set_meta("seed", seed.to_string());
    println!("# Fault sweep (seed {seed}, {N}x{N} f32, tile {TILE})\n");
    header(&[
        "rate",
        "arch",
        "injected",
        "recovered",
        "retries.fl",
        "retries.ln",
        "retired",
        "migrated",
        "time",
        "vs golden",
    ]);

    // Golden modeled times per architecture, for the inflation column.
    let golden: Vec<(String, SimDuration)> = architectures(&SystemConfig::small_test())
        .into_iter()
        .map(|mut sys| {
            let t = run_script(sys.as_mut());
            (sys.name().to_owned(), t)
        })
        .collect();

    for rate in RATES {
        let config = SystemConfig::small_test()
            .with_faults(FaultConfig::with_rate(seed, rate))
            .with_observability(obs);
        for (i, mut sys) in architectures(&config).into_iter().enumerate() {
            let modeled = run_script(sys.as_mut());
            let stats = sys.stats();
            let (injected, recovered) =
                (stats.get("faults.injected"), stats.get("faults.recovered"));
            assert_eq!(injected, recovered, "{}: unrecovered fault", sys.name());
            art.absorb(
                &format!("rate{:03}.{}", (rate * 100.0) as u64, sys.name()),
                sys.as_ref(),
            );
            row(&[
                format!("{rate:.2}"),
                sys.name().to_owned(),
                injected.to_string(),
                recovered.to_string(),
                stats.get("retries.flash").to_string(),
                stats.get("retries.link").to_string(),
                stats.get("blocks.retired").to_string(),
                stats.get("faults.migrated").to_string(),
                format!("{modeled}"),
                format!(
                    "{:+.1}%",
                    (modeled.as_nanos() as f64 / golden[i].1.as_nanos() as f64 - 1.0) * 100.0
                ),
            ]);
        }
    }
    println!("\nAll rows recovered every injected fault (injected == recovered).");
    art.write(announce_on_stderr).expect("write artifacts");
}
