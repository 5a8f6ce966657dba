//! Fig-level invariance of the translation-plan cache.
//!
//! The plan cache and the batched/zero-copy data path are wall-clock
//! optimizations only: every *modeled* quantity — payload bytes, latency
//! breakdowns, command counts — must be bit-identical with the cache on or
//! off. These tests replay a Fig. 9-style request sweep (rows, columns,
//! submatrices, repeats that hit the cache) on every architecture and
//! compare whole [`ReadOutcome`]s/[`WriteOutcome`]s across the two
//! configurations.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_system::{
    BaselineSystem, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd, SystemConfig,
};

#[path = "support/invariance.rs"]
mod invariance;

use invariance::{assert_same_outcomes, run, sweep, write_matrix};

fn config_with_cache(capacity: usize) -> SystemConfig {
    let mut config = SystemConfig::small_test();
    config.stl.plan_cache_capacity = capacity;
    config
}

#[test]
fn software_nds_outcomes_identical_with_cache_on_and_off() {
    assert_same_outcomes(
        "cache",
        run(&mut SoftwareNds::new(config_with_cache(128))),
        run(&mut SoftwareNds::new(config_with_cache(0))),
    );
}

#[test]
fn hardware_nds_outcomes_identical_with_cache_on_and_off() {
    assert_same_outcomes(
        "cache",
        run(&mut HardwareNds::new(config_with_cache(128))),
        run(&mut HardwareNds::new(config_with_cache(0))),
    );
}

#[test]
fn baseline_outcomes_identical_with_cache_on_and_off() {
    assert_same_outcomes(
        "cache",
        run(&mut BaselineSystem::new(config_with_cache(128))),
        run(&mut BaselineSystem::new(config_with_cache(0))),
    );
}

#[test]
fn oracle_outcomes_identical_with_cache_on_and_off() {
    assert_same_outcomes(
        "cache",
        run(&mut OracleSystem::with_tile(
            config_with_cache(128),
            vec![64, 64],
        )),
        run(&mut OracleSystem::with_tile(
            config_with_cache(0),
            vec![64, 64],
        )),
    );
}

/// `read` and `read_into` are the same modeled operation: identical metrics,
/// identical bytes, on every architecture.
#[test]
fn read_into_matches_read_on_every_architecture() {
    fn check<S: StorageFrontEnd>(mut sys: S) {
        let (id, shape, _) = write_matrix(&mut sys);
        let mut buf = Vec::new();
        for (coord, sub) in sweep() {
            let out = sys.read(id, &shape, &coord, &sub).expect("read");
            let metrics = sys
                .read_into(id, &shape, &coord, &sub, &mut buf)
                .expect("read_into");
            assert_eq!(buf, out.data, "{}: bytes diverge", sys.name());
            assert_eq!(metrics, out.metrics(), "{}: metrics diverge", sys.name());
        }
    }
    let config = SystemConfig::small_test();
    check(BaselineSystem::new(config.clone()));
    check(SoftwareNds::new(config.clone()));
    check(HardwareNds::new(config.clone()));
    check(OracleSystem::with_tile(config, vec![64, 64]));
}

/// Plans belong to a geometry, not to a dataset: sixteen tenants' equal
/// datasets on one device, each cycling through its own twelve operations —
/// a row panel, a tile and a column panel of the 64 × 64 matrix, each
/// written once and read three times at per-tenant coordinates, the shape of
/// the `tenant_mix` benchmark — miss the plan cache once per distinct
/// (shape, position inside its building block) and never again, however
/// long they run. A count, so it cannot flake.
#[test]
fn equal_tenant_datasets_share_their_plans() {
    use std::collections::BTreeSet;

    use nds_sim::splitmix64;
    use nds_workloads::tenants::tenant_dataset;

    const TENANTS: u64 = 16;
    const ROUNDS: u64 = 40;
    // (sub-dimensions, partitions along x, partitions along y)
    const SHAPES: [([u64; 2], u64, u64); 3] = [([64, 8], 1, 8), ([16, 16], 4, 4), ([8, 64], 8, 1)];

    let mut sys = HardwareNds::new(SystemConfig::small_test());
    let (shape, element) = tenant_dataset();
    let tenants: Vec<_> = (0..TENANTS)
        .map(|_| sys.create_dataset(shape.clone(), element).expect("create"))
        .collect();
    let block = sys
        .stl()
        .spaces()
        .next()
        .expect("a space per dataset")
        .block_shape()
        .dims()
        .to_vec();
    assert!(
        block.iter().zip(shape.dims()).all(|(b, d)| b < d),
        "the datasets span several blocks, or nothing relocates"
    );

    let payload: Vec<u8> = (0..2048u32).map(|i| (i % 251) as u8 | 1).collect();
    let mut buf = Vec::new();
    let mut keys = BTreeSet::new();
    let mut lookups = 0u64;
    for _ in 0..ROUNDS {
        for (t, &id) in (0..).zip(&tenants) {
            for (s, (sub, nx, ny)) in (0..).zip(SHAPES) {
                for k in 0..4u64 {
                    let h = splitmix64((t << 32) ^ (s * 4 + k));
                    let coord = [h % nx, (h >> 16) % ny];
                    if k == 0 {
                        let bytes = (sub[0] * sub[1] * 4) as usize;
                        sys.write(id, &shape, &coord, &sub, &payload[..bytes])
                            .expect("write");
                    } else {
                        sys.read_into(id, &shape, &coord, &sub, &mut buf)
                            .expect("read");
                    }
                    let within: Vec<u64> = (coord.iter().zip(&sub).zip(&block))
                        .map(|((c, f), b)| c * f % b)
                        .collect();
                    keys.insert((sub, within));
                    lookups += 1;
                }
            }
        }
    }

    let cache = sys.stl().plan_cache();
    assert_eq!(cache.hits() + cache.misses(), lookups);
    assert_eq!(
        cache.misses(),
        keys.len() as u64,
        "one miss per distinct key"
    );
    assert!(keys.len() <= 32, "{} distinct keys", keys.len());
    assert!(
        cache.hits() * 100 > lookups * 99,
        "hit ratio {} / {lookups}",
        cache.hits()
    );
}
