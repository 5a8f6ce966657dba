//! Regression tests pinning the paper's headline *shapes* at full device
//! geometry (32 channels, 4 KB pages, NVMeoF link, 256×256 f64 blocks).
//! These are the relations §7.1 reports; `EXPERIMENTS.md` records the
//! measured magnitudes.

use nds_core::{ElementType, Shape};
use nds_faults::FaultConfig;
use nds_system::{BaselineSystem, HardwareNds, SoftwareNds, StorageFrontEnd, SystemConfig};

const N: u64 = 4096;

fn setup<S: StorageFrontEnd>(mut sys: S) -> (S, nds_system::DatasetId, Shape) {
    let shape = Shape::new([N, N]);
    let id = sys
        .create_dataset(shape.clone(), ElementType::F64)
        .expect("create");
    let bytes: Vec<u8> = (0..N * N * 8).map(|i| (i % 251) as u8).collect();
    sys.write(id, &shape, &[0, 0], &[N, N], &bytes)
        .expect("write");
    (sys, id, shape)
}

fn bw(out: &nds_system::ReadOutcome) -> f64 {
    out.effective_bandwidth().as_mib_per_sec()
}

#[test]
fn fig9a_row_fetch_baseline_matches_hardware_software_trails() {
    let config = SystemConfig::paper_scale();
    let (mut base, b_id, shape) = setup(BaselineSystem::new(config.clone()));
    let (mut sw, s_id, _) = setup(SoftwareNds::new(config.clone()));
    let (mut hw, h_id, _) = setup(HardwareNds::new(config));

    let b = base.read(b_id, &shape, &[0, 0], &[N, 512]).expect("rows");
    let s = sw.read(s_id, &shape, &[0, 0], &[N, 512]).expect("rows");
    let h = hw.read(h_id, &shape, &[0, 0], &[N, 512]).expect("rows");

    // Hardware NDS within 5% of the baseline on row streaming (§7.1:
    // "almost identical").
    assert!(
        (bw(&h) / bw(&b) - 1.0).abs() < 0.05,
        "hardware {} vs baseline {}",
        bw(&h),
        bw(&b)
    );
    // Software NDS pays its 2 KB-chunk assembly: 5–30% below baseline.
    let penalty = 1.0 - bw(&s) / bw(&b);
    assert!(
        (0.05..0.30).contains(&penalty),
        "software row-fetch penalty {penalty:.2} outside the paper band"
    );
}

#[test]
fn fig9b_column_fetch_baseline_collapses_nds_does_not() {
    let config = SystemConfig::paper_scale();
    let (mut base, b_id, shape) = setup(BaselineSystem::new(config.clone()));
    let (mut hw, h_id, _) = setup(HardwareNds::new(config));

    let b = base.read(b_id, &shape, &[0, 0], &[512, N]).expect("cols");
    let h = hw.read(h_id, &shape, &[0, 0], &[512, N]).expect("cols");
    assert!(
        bw(&h) > 4.0 * bw(&b),
        "columns: NDS {} should be several times the row-store baseline {}",
        bw(&h),
        bw(&b)
    );
}

#[test]
fn fig9c_submatrix_order_baseline_software_hardware() {
    let config = SystemConfig::paper_scale();
    let (mut base, b_id, shape) = setup(BaselineSystem::new(config.clone()));
    let (mut sw, s_id, _) = setup(SoftwareNds::new(config.clone()));
    let (mut hw, h_id, _) = setup(HardwareNds::new(config));

    let b = base
        .read(b_id, &shape, &[1, 1], &[1024, 1024])
        .expect("tile");
    let s = sw.read(s_id, &shape, &[1, 1], &[1024, 1024]).expect("tile");
    let h = hw.read(h_id, &shape, &[1, 1], &[1024, 1024]).expect("tile");
    assert!(
        bw(&b) < bw(&s) && bw(&s) < bw(&h),
        "submatrix ordering violated: baseline {} / software {} / hardware {}",
        bw(&b),
        bw(&s),
        bw(&h)
    );
    assert!(bw(&h) > 2.0 * bw(&b), "NDS should win big on tiles");
}

#[test]
fn fig9d_write_penalties_in_paper_bands() {
    let config = SystemConfig::paper_scale();
    let shape = Shape::new([2048, 2048]);
    let bytes: Vec<u8> = (0..2048u64 * 2048 * 8).map(|i| (i % 251) as u8).collect();

    let mut results = Vec::new();
    let mut base = BaselineSystem::new(config.clone());
    let mut sw = SoftwareNds::new(config.clone());
    let mut hw = HardwareNds::new(config);
    for sys in [
        &mut base as &mut dyn StorageFrontEnd,
        &mut sw as &mut dyn StorageFrontEnd,
        &mut hw as &mut dyn StorageFrontEnd,
    ] {
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .expect("create");
        let out = sys
            .write(id, &shape, &[0, 0], &[2048, 2048], &bytes)
            .expect("write");
        results.push(out.effective_bandwidth().as_mib_per_sec());
    }
    let (b, s, h) = (results[0], results[1], results[2]);
    let sw_penalty = 1.0 - s / b;
    let hw_penalty = 1.0 - h / b;
    // §7.1: software −30%, hardware −17%.
    assert!(
        (0.20..0.42).contains(&sw_penalty),
        "software write penalty {sw_penalty:.2} outside the paper band"
    );
    assert!(
        (0.08..0.28).contains(&hw_penalty),
        "hardware write penalty {hw_penalty:.2} outside the paper band"
    );
    assert!(
        hw_penalty < sw_penalty,
        "hardware must lose less than software on writes"
    );
}

/// Compiling the fault machinery in at rate 0 must not move a single
/// number: every [`WriteOutcome`] and [`ReadOutcome`] — payload bytes,
/// latencies, command counts — is equal (`PartialEq` over every field) to
/// the fault-free build's, on all three paper architectures, for both the
/// fig9-style row fetch and the tile fetch. This pins the "zero-rate plan
/// is schedule-identical to no plan" invariant at full paper geometry.
///
/// [`WriteOutcome`]: nds_system::WriteOutcome
/// [`ReadOutcome`]: nds_system::ReadOutcome
#[test]
fn fig9_shapes_unmoved_by_zero_rate_fault_plan() {
    // Moderate N keeps this regression fast; the relation under test is
    // exact equality, which does not need headline-scale volumes.
    let n: u64 = 512;
    let shape = Shape::new([n, n]);
    let bytes: Vec<u8> = (0..n * n * 8).map(|i| (i % 251) as u8).collect();
    let plain = SystemConfig::paper_scale();
    let zeroed = SystemConfig::paper_scale().with_faults(FaultConfig::with_rate(1221, 0.0));

    let run = |config: &SystemConfig| {
        let mut outcomes = Vec::new();
        let mut base = BaselineSystem::new(config.clone());
        let mut sw = SoftwareNds::new(config.clone());
        let mut hw = HardwareNds::new(config.clone());
        for sys in [
            &mut base as &mut dyn StorageFrontEnd,
            &mut sw as &mut dyn StorageFrontEnd,
            &mut hw as &mut dyn StorageFrontEnd,
        ] {
            let id = sys.create_dataset(shape.clone(), ElementType::F64).unwrap();
            let w = sys.write(id, &shape, &[0, 0], &[n, n], &bytes).unwrap();
            let rows = sys.read(id, &shape, &[0, 0], &[n, 64]).unwrap();
            let tile = sys.read(id, &shape, &[1, 1], &[128, 128]).unwrap();
            assert_eq!(
                sys.stats().get("faults.injected"),
                0,
                "{}: a zero-rate plan must inject nothing",
                sys.name()
            );
            outcomes.push((sys.name(), w, rows, tile));
        }
        outcomes
    };

    for ((name, w0, r0, t0), (_, w1, r1, t1)) in run(&plain).into_iter().zip(run(&zeroed)) {
        assert_eq!(w0, w1, "{name}: write outcome moved by zero-rate plan");
        assert_eq!(r0, r1, "{name}: row-fetch outcome moved by zero-rate plan");
        assert_eq!(t0, t1, "{name}: tile-fetch outcome moved by zero-rate plan");
    }
}

#[test]
fn sec73_added_latency_in_paper_order() {
    // Single-page reads: baseline < hardware < software in latency; the
    // additions stay within the same order as a NAND page read.
    let config = SystemConfig::paper_scale();
    let page_elems = config.flash.geometry.page_size as u64 / 8;
    let shape = Shape::new([page_elems, 64]);
    let bytes: Vec<u8> = (0..page_elems * 64 * 8).map(|i| (i % 251) as u8).collect();

    let mut latencies = Vec::new();
    let mut base = BaselineSystem::new(config.clone());
    let mut sw = SoftwareNds::new(config.clone());
    let mut hw = HardwareNds::new(config);
    for sys in [
        &mut base as &mut dyn StorageFrontEnd,
        &mut sw as &mut dyn StorageFrontEnd,
        &mut hw as &mut dyn StorageFrontEnd,
    ] {
        let id = sys
            .create_dataset(shape.clone(), ElementType::F64)
            .expect("create");
        sys.write(id, &shape, &[0, 0], &[page_elems, 64], &bytes)
            .expect("write");
        let out = sys
            .read(id, &shape, &[0, 9], &[page_elems, 1])
            .expect("read");
        latencies.push(out.latency());
    }
    let (b, s, h) = (latencies[0], latencies[1], latencies[2]);
    assert!(b < h && h < s, "latency order must be baseline < hw < sw");
    let sw_added = (s - b).as_micros();
    let hw_added = (h - b).as_micros();
    assert!(
        (30..=60).contains(&sw_added),
        "software added latency {sw_added} µs vs paper's 41 µs"
    );
    assert!(
        (10..=30).contains(&hw_added),
        "hardware added latency {hw_added} µs vs paper's 17 µs"
    );
}
