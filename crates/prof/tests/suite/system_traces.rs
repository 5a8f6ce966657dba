//! End-to-end profiler tests over real architecture runs.
//!
//! Each test drives a front-end from `nds-system` under
//! [`ObsConfig::traced`], renders the causal trace with
//! [`nds_prof::render`], and feeds it back through
//! [`nds_prof::parse`]/[`analyze`]:
//!
//! * the rendered Chrome-trace JSON must be **byte-identical** across two
//!   identical runs, for every architecture;
//! * the attribution invariant must hold for every traced command (stage
//!   spans sum exactly to end-to-end latency);
//! * on a Fig. 9-style tile sweep, both NDS variants must show **strictly
//!   higher effective channel parallelism** than the baseline SSD — the
//!   paper's §7.1 mechanism made measurable.

use nds_core::{ElementType, Shape};
use nds_prof::{analyze, format_report, parse, render, SystemAnalysis};
use nds_sim::{ObsConfig, TraceExport};
use nds_system::{
    BaselineSystem, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd, SystemConfig,
};

const N: u64 = 512;
const TILE: u64 = 128;

fn config() -> SystemConfig {
    SystemConfig::small_test().with_observability(ObsConfig::traced())
}

/// A miniature Fig. 9: whole-matrix write, then a read sweep of row
/// panels, column panels, and submatrix tiles (the column fetches are
/// where the row-store baseline's channel parallelism collapses — §7.1).
fn run_sweep<S: StorageFrontEnd>(mut sys: S) -> TraceExport {
    let shape = Shape::new([N, N]);
    let id = sys
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let bytes: Vec<u8> = (0..N * N * 4).map(|i| (i % 251) as u8).collect();
    sys.write(id, &shape, &[0, 0], &[N, N], &bytes)
        .expect("write");
    let mut reads: Vec<(Vec<u64>, Vec<u64>)> = vec![
        (vec![0, 0], vec![N, 64]),
        (vec![1, 1], vec![TILE, TILE]),
        (vec![0, 1], vec![256, 128]),
        (vec![3, 3], vec![TILE, TILE]),
    ];
    // Fig. 9(b)'s regime: the read mix is dominated by column panels,
    // which the row-store baseline serves with one strided command per
    // row, camping on a fraction of the device's lanes.
    for i in 0..12 {
        // Coordinates are chunk-indexed: panel i covers rows
        // `(i % 8) * 64 ..`, sweeping the matrix and wrapping.
        reads.push((vec![i % 8, 0], vec![64, N]));
    }
    for (coord, sub) in &reads {
        sys.read(id, &shape, coord, sub).expect("read");
    }
    sys.trace_export().expect("traced system must export")
}

fn all_traces() -> Vec<(String, TraceExport)> {
    vec![
        (
            "baseline".to_string(),
            run_sweep(BaselineSystem::new(config())),
        ),
        (
            "software-nds".to_string(),
            run_sweep(SoftwareNds::new(config())),
        ),
        (
            "hardware-nds".to_string(),
            run_sweep(HardwareNds::new(config())),
        ),
        (
            "oracle".to_string(),
            run_sweep(OracleSystem::with_tile(config(), vec![TILE, TILE])),
        ),
    ]
}

fn analyses_of(traces: &[(String, TraceExport)]) -> Vec<SystemAnalysis> {
    let text = render(traces);
    let profiles = parse(&text).expect("rendered trace must parse");
    assert_eq!(profiles.len(), traces.len());
    profiles.iter().map(analyze).collect()
}

#[test]
fn trace_json_is_byte_identical_across_runs_per_architecture() {
    for (name, first, second) in [
        (
            "baseline",
            render(&[("s".into(), run_sweep(BaselineSystem::new(config())))]),
            render(&[("s".into(), run_sweep(BaselineSystem::new(config())))]),
        ),
        (
            "software-nds",
            render(&[("s".into(), run_sweep(SoftwareNds::new(config())))]),
            render(&[("s".into(), run_sweep(SoftwareNds::new(config())))]),
        ),
        (
            "hardware-nds",
            render(&[("s".into(), run_sweep(HardwareNds::new(config())))]),
            render(&[("s".into(), run_sweep(HardwareNds::new(config())))]),
        ),
        (
            "oracle",
            render(&[(
                "s".into(),
                run_sweep(OracleSystem::with_tile(config(), vec![TILE, TILE])),
            )]),
            render(&[(
                "s".into(),
                run_sweep(OracleSystem::with_tile(config(), vec![TILE, TILE])),
            )]),
        ),
    ] {
        assert_eq!(
            first, second,
            "{name}: identical runs must render byte-identical trace JSON"
        );
    }
}

#[test]
fn attribution_invariant_holds_for_every_architecture() {
    let traces = all_traces();
    for a in analyses_of(&traces) {
        assert!(
            a.violations.is_empty(),
            "{}: attribution invariant violated: {:?}",
            a.name,
            a.violations
        );
        assert!(a.commands >= 17, "{}: expected write + 16 reads", a.name);
        assert!(
            a.total_latency_ns > 0 && a.total_latency_ns == a.makespan_ns,
            "{}: trace clock must equal summed command latencies",
            a.name
        );
        assert!(a.p50_ns <= a.p95_ns && a.p95_ns <= a.p99_ns);
    }
}

#[test]
fn nds_has_strictly_higher_effective_channel_parallelism_than_baseline() {
    let traces = all_traces();
    let analyses = analyses_of(&traces);
    let eff = |name: &str| {
        analyses
            .iter()
            .find(|a| a.name == name)
            .map(|a| a.effective_parallelism_milli)
            .expect("analysis present")
    };
    let base = eff("baseline");
    let sw = eff("software-nds");
    let hw = eff("hardware-nds");
    assert!(
        sw > base,
        "software NDS parallelism {sw} must exceed baseline {base} (milli-channels)"
    );
    assert!(
        hw > base,
        "hardware NDS parallelism {hw} must exceed baseline {base} (milli-channels)"
    );
}

#[test]
fn report_renders_cross_system_comparison() {
    let traces = all_traces();
    let report = format_report(&analyses_of(&traces));
    assert!(report.contains("## cross-system comparison"));
    for name in ["baseline", "software-nds", "hardware-nds", "oracle"] {
        assert!(report.contains(name), "report missing {name}");
    }
    assert!(report.contains("attribution invariant: OK"));
    assert!(!report.contains("VIOLATED"));
}
