//! Cross-tenant namespace isolation: a tenant can never read or write
//! another tenant's dataspaces, and interleaved multi-tenant traffic
//! never corrupts any tenant's data — verified byte-exactly against the
//! engine's positional pattern.

use nds_core::{ElementType, Shape};
use nds_system::{
    tenant_pattern_byte, Arrival, HardwareNds, OpKind, SystemConfig, SystemError, TenantOp,
    TenantSet, TenantSpec, TrafficEngine,
};
use proptest::prelude::*;

const SEED: u64 = 404;

fn two_tenant_set() -> TenantSet {
    let mut set = TenantSet::new(SEED);
    for t in 0..2u32 {
        set = set.with_tenant(TenantSpec {
            weight: 1,
            depth: 2,
            arrival: Arrival::Closed { outstanding: 2 },
            datasets: vec![(Shape::new([32, 32]), ElementType::F32)],
            ops: vec![TenantOp {
                kind: OpKind::Read,
                dataset: 0,
                coord: vec![u64::from(t), 0],
                sub_dims: vec![8, 32],
            }],
            total_ops: 2,
        });
    }
    set
}

#[test]
fn foreign_dataset_access_is_a_typed_error() {
    let set = two_tenant_set();
    let sys = HardwareNds::new(SystemConfig::small_test());
    let mut engine = TrafficEngine::new(sys, &set).expect("setup");
    let own = engine.dataset_id(0, 0).expect("tenant 0 dataset");
    let foreign = engine.dataset_id(1, 0).expect("tenant 1 dataset");
    assert_eq!(engine.owner_of(own), Some(0));
    assert_eq!(engine.owner_of(foreign), Some(1));

    // Reads and writes through the guard against a foreign dataset fail
    // with the dedicated isolation error, not a generic one.
    let mut buf = Vec::new();
    let read = engine.read_as(0, foreign, &[0, 0], &[8, 32], &mut buf);
    assert!(
        matches!(
            read,
            Err(SystemError::TenantIsolation { tenant: 0, dataset }) if dataset == foreign
        ),
        "cross-tenant read not rejected: {read:?}"
    );
    let data = vec![0xAAu8; 8 * 32 * 4];
    let write = engine.write_as(0, foreign, &[0, 0], &[8, 32], &data);
    assert!(
        matches!(
            write,
            Err(SystemError::TenantIsolation { tenant: 0, dataset }) if dataset == foreign
        ),
        "cross-tenant write not rejected: {write:?}"
    );
    // Guarded access to the tenant's own dataset still works.
    engine
        .read_as(0, own, &[0, 0], &[8, 32], &mut buf)
        .expect("own-dataset read");
}

#[test]
fn rejected_cross_tenant_write_leaves_victim_intact() {
    let set = two_tenant_set();
    let sys = HardwareNds::new(SystemConfig::small_test());
    let mut engine = TrafficEngine::new(sys, &set).expect("setup");
    let victim = engine.dataset_id(1, 0).expect("tenant 1 dataset");
    let garbage = vec![0xFFu8; 32 * 32 * 4];
    assert!(engine
        .write_as(0, victim, &[0, 0], &[32, 32], &garbage)
        .is_err());
    // The victim's full dataset still holds its own pattern byte-exactly.
    let mut buf = Vec::new();
    engine
        .read_as(1, victim, &[0, 0], &[32, 32], &mut buf)
        .expect("victim read");
    for (offset, &byte) in buf.iter().enumerate() {
        assert_eq!(
            byte,
            tenant_pattern_byte(SEED, 1, 0, offset as u64),
            "victim dataset corrupted at byte {offset}"
        );
    }
}

/// One randomized tenant population: per-tenant op mixes over private
/// 32×32 datasets with varying region shapes and read/write splits.
#[derive(Debug, Clone)]
struct FuzzSet {
    seed: u64,
    tenants: Vec<Vec<TenantOp>>,
    total_ops: u64,
}

fn tenant_ops() -> impl Strategy<Value = Vec<TenantOp>> {
    prop::collection::vec(
        (0u64..4, 0u64..4, any::<bool>()).prop_map(|(r, c, is_read)| TenantOp {
            kind: if is_read { OpKind::Read } else { OpKind::Write },
            dataset: 0,
            coord: vec![r, c],
            sub_dims: vec![8, 8],
        }),
        1..6,
    )
}

fn fuzz_set() -> impl Strategy<Value = FuzzSet> {
    (
        0u64..1_000_000,
        prop::collection::vec(tenant_ops(), 2..5),
        4u64..10,
    )
        .prop_map(|(seed, tenants, total_ops)| FuzzSet {
            seed,
            tenants,
            total_ops,
        })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(10))]

    /// Fuzz over interleaved per-tenant mixes: every in-run read verifies
    /// against its owner's pattern, and after the run each tenant's full
    /// dataset still round-trips byte-exactly — no interleaving of other
    /// tenants' writes can leak into it.
    #[test]
    fn interleaved_mixes_preserve_per_tenant_bytes(fuzz in fuzz_set()) {
        let mut set = TenantSet::new(fuzz.seed);
        for ops in &fuzz.tenants {
            set = set.with_tenant(TenantSpec {
                weight: 1,
                depth: 2,
                arrival: Arrival::Closed { outstanding: 2 },
                datasets: vec![(Shape::new([32, 32]), ElementType::F32)],
                ops: ops.clone(),
                total_ops: fuzz.total_ops,
            });
        }
        let sys = HardwareNds::new(SystemConfig::small_test());
        let mut engine = TrafficEngine::new(sys, &set).expect("setup");
        engine.run().expect("run");
        for c in engine.completions() {
            prop_assert!(
                c.data_ok,
                "tenant {} op {} read bytes outside its pattern",
                c.tenant,
                c.op_index
            );
        }
        let mut buf = Vec::new();
        for t in 0..fuzz.tenants.len() as u32 {
            let id = engine.dataset_id(t, 0).expect("dataset");
            engine
                .read_as(t, id, &[0, 0], &[32, 32], &mut buf)
                .expect("full read");
            for (offset, &byte) in buf.iter().enumerate() {
                prop_assert_eq!(
                    byte,
                    tenant_pattern_byte(fuzz.seed, t, 0, offset as u64),
                    "tenant {} byte {} corrupted", t, offset
                );
            }
        }
    }
}
