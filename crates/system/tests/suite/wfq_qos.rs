//! QoS properties of the multi-tenant traffic engine: work conservation,
//! per-tenant depth limits, no starvation, and achieved-vs-configured
//! WFQ throughput shares — checked over randomized tenant populations
//! (proptest) and asserted exactly on the weighted saturation scenario.

use nds_core::{ElementType, Shape};
use nds_system::{
    Arrival, BaselineSystem, OpKind, SystemConfig, TenantOp, TenantSet, TenantSpec, TrafficEngine,
};
use proptest::prelude::*;

/// Equal-cost op list: every op reads the same-size row panel (8×64 f32 =
/// 2 KiB), so WFQ service counts map 1:1 onto byte shares.
fn uniform_ops(tenant: u32) -> Vec<TenantOp> {
    (0..4u64)
        .map(|i| TenantOp {
            kind: OpKind::Read,
            dataset: 0,
            coord: vec![(u64::from(tenant) + i) % 8, 0],
            sub_dims: vec![8, 64],
        })
        .collect()
}

fn closed_spec(tenant: u32, weight: u64, depth: u32, total_ops: u64) -> TenantSpec {
    TenantSpec {
        weight,
        depth,
        arrival: Arrival::Closed {
            outstanding: depth.max(1),
        },
        datasets: vec![(Shape::new([64, 64]), ElementType::F32)],
        ops: uniform_ops(tenant),
        total_ops,
    }
}

fn run_engine(set: &TenantSet) -> TrafficEngine<BaselineSystem> {
    let sys = BaselineSystem::new(SystemConfig::small_test());
    let mut engine = TrafficEngine::new(sys, set).expect("setup");
    engine.run().expect("run");
    engine
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    /// Randomized closed tenant populations: every tenant finishes every
    /// operation (no starvation), the admitted-depth high-water mark never
    /// exceeds the configured limit, and the device is work-conserving —
    /// it never idles while an admitted operation is waiting.
    #[test]
    fn closed_populations_complete_within_limits(
        weights in prop::collection::vec(1u64..6, 2..5),
        depth in 1u32..4,
        total_ops in 6u64..14,
    ) {
        let mut set = TenantSet::new(9 + depth as u64);
        for (t, &w) in weights.iter().enumerate() {
            set = set.with_tenant(closed_spec(t as u32, w, depth, total_ops));
        }
        let engine = run_engine(&set);

        // No starvation: every tenant completed its full run.
        let mut per_tenant = vec![0u64; weights.len()];
        for c in engine.completions() {
            per_tenant[c.tenant as usize] += 1;
            prop_assert!(c.data_ok, "tenant {} read bad bytes", c.tenant);
        }
        prop_assert_eq!(per_tenant, vec![total_ops; weights.len()]);

        // Depth limits hold at the high-water mark.
        for t in 0..weights.len() as u32 {
            prop_assert!(
                engine.max_outstanding(t) <= depth,
                "tenant {t} exceeded depth {depth}: {}",
                engine.max_outstanding(t)
            );
        }

        // Work conservation: a service gap implies nothing was admitted
        // (admitted ≤ end of gap) during that gap.
        let completions = engine.completions();
        for pair in completions.windows(2) {
            let (prev, next) = (&pair[0], &pair[1]);
            prop_assert!(next.started >= prev.finished, "device double-booked");
            if next.started > prev.finished {
                let idle_violation = completions.iter().any(|c| {
                    c.admitted <= prev.finished && c.started >= next.started && c != next
                });
                prop_assert!(
                    !idle_violation,
                    "device idled from {:?} to {:?} with admitted work queued",
                    prev.finished,
                    next.started
                );
            }
        }
    }
}

#[test]
fn achieved_shares_track_weights_at_saturation() {
    // Three always-backlogged tenants with weights 1:2:4 on equal-cost
    // ops. Inside the saturated window — up to the instant the first
    // tenant finishes its run — every tenant's byte share must be within
    // 10% relative error of its configured weight share.
    let weights = [1u64, 2, 4];
    let total_ops = 128u64;
    let mut set = TenantSet::new(77);
    for (t, &w) in weights.iter().enumerate() {
        set = set.with_tenant(closed_spec(t as u32, w, 4, total_ops));
    }
    let engine = run_engine(&set);

    let horizon = (0..weights.len() as u32)
        .map(|t| {
            engine
                .completions()
                .iter()
                .filter(|c| c.tenant == t)
                .map(|c| c.finished)
                .max()
                .expect("tenant completed something")
        })
        .min()
        .expect("three tenants");
    let mut served = vec![0u64; weights.len()];
    for c in engine.completions() {
        if c.finished <= horizon {
            served[c.tenant as usize] += c.bytes;
        }
    }
    let total: u64 = served.iter().sum();
    let weight_sum: u64 = weights.iter().sum();
    assert!(total > 0);
    for (t, &w) in weights.iter().enumerate() {
        let achieved_milli = served[t] * 1000 / total;
        let configured_milli = w * 1000 / weight_sum;
        let err_milli = achieved_milli.abs_diff(configured_milli);
        assert!(
            err_milli * 10 <= configured_milli,
            "tenant {t}: achieved {achieved_milli}m vs configured {configured_milli}m \
             exceeds 10% relative error"
        );
    }
}

#[test]
fn open_arrivals_respect_depth_and_order() {
    // Open tenants with a tight gap saturate; with a huge gap the engine
    // must still serve every op exactly once, in nondecreasing start
    // order, without exceeding depth 2.
    for gap_ns in [200u64, 2_000_000] {
        let mut set = TenantSet::new(5);
        for t in 0..3u32 {
            set = set.with_tenant(TenantSpec {
                weight: 1,
                depth: 2,
                arrival: Arrival::Open {
                    mean_gap: nds_sim::SimDuration::from_nanos(gap_ns),
                },
                datasets: vec![(Shape::new([64, 64]), ElementType::F32)],
                ops: uniform_ops(t),
                total_ops: 10,
            });
        }
        let engine = run_engine(&set);
        assert_eq!(engine.completions().len(), 30);
        for t in 0..3 {
            assert!(engine.max_outstanding(t) <= 2);
        }
        let mut prev = None;
        for c in engine.completions() {
            assert!(c.admitted >= c.arrived, "admitted before arrival");
            assert!(c.started >= c.admitted, "started before admission");
            if let Some(p) = prev {
                assert!(c.started >= p, "service order regressed");
            }
            prev = Some(c.started);
        }
    }
}
