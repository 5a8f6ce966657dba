//! Differential determinism suite for the multi-tenant traffic engine.
//!
//! The engine's contract is that a run is a pure function of
//! `(TenantSet, SystemConfig)`: same tenant set and seed ⇒ byte-identical
//! completion journal, engine report, and causal trace — across repeated
//! runs, across observability settings (the engine report is built only
//! from always-on accounting), and under an active fault plan (faults are
//! drawn from their own seeded streams). A single tenant driven through
//! the engine must also be schedule-identical to the same operations
//! replayed directly on the front-end.

use nds_core::{ElementType, Shape};
use nds_faults::FaultConfig;
use nds_sim::ObsConfig;
use nds_system::{
    tenant_pattern_byte, Arrival, HardwareNds, OpKind, SoftwareNds, StorageFrontEnd, SystemConfig,
    TenantOp, TenantSet, TenantSpec, TrafficEngine,
};

const SEED: u64 = 2026;

/// A small mixed open/closed tenant set over 64×64 f32 datasets — the
/// differential suite's canonical traffic, built by hand so this crate's
/// tests stay independent of `nds-workloads`.
fn mixed_set(tenants: u32, ops_per_tenant: u64) -> TenantSet {
    let mut set = TenantSet::new(SEED);
    for t in 0..tenants {
        let arrival = if t % 2 == 0 {
            Arrival::Closed { outstanding: 3 }
        } else {
            Arrival::Open {
                mean_gap: nds_sim::SimDuration::from_micros(2),
            }
        };
        set = set.with_tenant(TenantSpec {
            weight: 1 + u64::from(t % 3),
            depth: 3,
            arrival,
            datasets: vec![(Shape::new([64, 64]), ElementType::F32)],
            ops: ops_mix(t),
            total_ops: ops_per_tenant,
        });
    }
    set
}

/// Four-op mix the engine cycles: row panel read, tile write, tile read,
/// column panel read — varied per tenant so interleavings differ.
fn ops_mix(tenant: u32) -> Vec<TenantOp> {
    let r = u64::from(tenant);
    vec![
        TenantOp {
            kind: OpKind::Read,
            dataset: 0,
            coord: vec![r % 8, 0],
            sub_dims: vec![8, 64],
        },
        TenantOp {
            kind: OpKind::Write,
            dataset: 0,
            coord: vec![r % 4, (r + 1) % 4],
            sub_dims: vec![16, 16],
        },
        TenantOp {
            kind: OpKind::Read,
            dataset: 0,
            coord: vec![(r + 2) % 4, r % 4],
            sub_dims: vec![16, 16],
        },
        TenantOp {
            kind: OpKind::Read,
            dataset: 0,
            coord: vec![0, r % 8],
            sub_dims: vec![64, 8],
        },
    ]
}

/// Runs the set on a fresh hardware-NDS system and returns the run's
/// three determinism artifacts: journal text, engine-report JSON, and
/// the tenant-attributed trace export (when tracing was on).
fn run_artifacts(
    config: &SystemConfig,
    set: &TenantSet,
) -> (String, String, Option<nds_sim::TraceExport>) {
    let sys = HardwareNds::new(config.clone());
    let mut engine = TrafficEngine::new(sys, set).expect("setup");
    engine.run().expect("run");
    assert!(
        engine.completions().iter().all(|c| c.data_ok),
        "pattern verification failed"
    );
    (
        engine.journal_lines(),
        engine.report().to_json(),
        engine.trace_export(),
    )
}

#[test]
fn repeated_runs_are_byte_identical() {
    let set = mixed_set(4, 12);
    let config = SystemConfig::small_test().with_observability(ObsConfig::traced());
    let (journal_a, report_a, trace_a) = run_artifacts(&config, &set);
    let (journal_b, report_b, trace_b) = run_artifacts(&config, &set);
    assert_eq!(journal_a, journal_b, "journal diverged across runs");
    assert_eq!(report_a, report_b, "report diverged across runs");
    assert!(trace_a.is_some(), "tracing was on");
    assert_eq!(trace_a, trace_b, "trace diverged across runs");
}

#[test]
fn engine_artifacts_are_observability_invariant() {
    let set = mixed_set(4, 12);
    let mut baseline = None;
    for obs in [
        ObsConfig::disabled(),
        ObsConfig::full(),
        ObsConfig::traced(),
    ] {
        let config = SystemConfig::small_test().with_observability(obs);
        let (journal, report, _) = run_artifacts(&config, &set);
        match &baseline {
            None => baseline = Some((journal, report)),
            Some((j, r)) => {
                assert_eq!(&journal, j, "journal varies with observability");
                assert_eq!(&report, r, "engine report varies with observability");
            }
        }
    }
}

#[test]
fn determinism_holds_under_an_active_fault_plan() {
    let set = mixed_set(4, 12);
    let faults = FaultConfig::with_rate(31, 0.05);
    assert!(faults.is_active());
    let config = SystemConfig::small_test()
        .with_faults(faults)
        .with_observability(ObsConfig::full());
    let (journal_a, report_a, _) = run_artifacts(&config, &set);
    let (journal_b, report_b, _) = run_artifacts(&config, &set);
    assert_eq!(journal_a, journal_b, "journal diverged under faults");
    assert_eq!(report_a, report_b, "report diverged under faults");
    // Faults must actually change the schedule relative to a clean run —
    // otherwise this test is vacuous.
    let clean = SystemConfig::small_test().with_observability(ObsConfig::full());
    let (clean_journal, _, _) = run_artifacts(&clean, &set);
    assert_ne!(
        journal_a, clean_journal,
        "fault plan did not perturb the run (retries should add latency)"
    );
}

#[test]
fn single_tenant_engine_matches_direct_replay() {
    // One closed tenant with depth 1 is a plain serial op stream: the
    // engine must produce exactly the latencies the front-end produces
    // when the same operations are replayed directly.
    let ops = ops_mix(0);
    let total_ops = 8u64;
    let set = TenantSet::new(SEED).with_tenant(TenantSpec {
        weight: 1,
        depth: 1,
        arrival: Arrival::Closed { outstanding: 1 },
        datasets: vec![(Shape::new([64, 64]), ElementType::F32)],
        ops: ops.clone(),
        total_ops,
    });
    let config = SystemConfig::small_test();
    let sys = SoftwareNds::new(config.clone());
    let mut engine = TrafficEngine::new(sys, &set).expect("setup");
    engine.run().expect("run");
    let engine_latencies: Vec<u64> = engine
        .completions()
        .iter()
        .map(|c| c.finished.saturating_since(c.started).as_nanos())
        .collect();
    assert_eq!(engine_latencies.len(), total_ops as usize);

    // Direct replay: identical setup write, then the same cycled ops.
    let mut direct = SoftwareNds::new(config);
    let shape = Shape::new([64, 64]);
    let id = direct
        .create_dataset(shape.clone(), ElementType::F32)
        .expect("create");
    let full: Vec<u8> = (0..64 * 64 * 4)
        .map(|i| tenant_pattern_byte(SEED, 0, 0, i))
        .collect();
    direct
        .write(id, &shape, &[0, 0], &[64, 64], &full)
        .expect("setup write");
    let mut direct_latencies = Vec::new();
    let mut buf = Vec::new();
    for i in 0..total_ops {
        let op = &ops[(i % ops.len() as u64) as usize];
        let latency = match op.kind {
            OpKind::Read => direct
                .read_into(id, &shape, &op.coord, &op.sub_dims, &mut buf)
                .expect("read")
                .latency()
                .as_nanos(),
            OpKind::Write => {
                let volume: u64 = op.sub_dims.iter().product();
                let data: Vec<u8> = (0..volume * 4).map(|j| (j % 251) as u8).collect();
                direct
                    .write(id, &shape, &op.coord, &op.sub_dims, &data)
                    .expect("write")
                    .latency
                    .as_nanos()
            }
        };
        direct_latencies.push(latency);
    }
    assert_eq!(
        engine_latencies, direct_latencies,
        "single tenant through the engine is not schedule-identical to a direct run"
    );
}
