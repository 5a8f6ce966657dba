//! Multi-tenant workload mixes for the traffic engine.
//!
//! These builders turn the Fig. 9 access-pattern sweeps (row panels,
//! tiles, column panels over a 2-D matrix) into per-tenant command mixes
//! for [`nds_system::TrafficEngine`]. Everything is a pure function of
//! `(seed, tenant)`, so a [`TenantSet`] built here is a complete,
//! deterministic description of a multi-tenant run.

use nds_core::{ElementType, Shape};
use nds_sim::{splitmix64, SimDuration};
use nds_system::{Arrival, OpKind, TenantOp, TenantSet, TenantSpec};

/// Canonical per-tenant dataset: a 64×64 `f32` matrix (16 KiB), the
/// smallest shape on which the Fig. 9 patterns (row panels, tiles,
/// column panels) are all distinct.
pub fn tenant_dataset() -> (Shape, ElementType) {
    (Shape::new([64, 64]), ElementType::F32)
}

/// A seeded Fig. 9-style command mix over [`tenant_dataset`]: each
/// operation is a row panel (8×64), a tile (16×16), or a column panel
/// (64×8) of the matrix, read with probability `read_pct`% and written
/// otherwise. The mix cycles inside the engine, so `ops` bounds the
/// pattern period, not the run length.
pub fn fig9_mix(seed: u64, tenant: u32, ops: usize, read_pct: u32) -> Vec<TenantOp> {
    (0..ops as u64)
        .map(|i| {
            let h = splitmix64(seed ^ 0xf19_9000 ^ (u64::from(tenant) << 32) ^ i);
            let kind = if h % 100 < u64::from(read_pct.min(100)) {
                OpKind::Read
            } else {
                OpKind::Write
            };
            match (h >> 8) % 3 {
                0 => TenantOp {
                    kind,
                    dataset: 0,
                    coord: vec![(h >> 16) % 8, 0],
                    sub_dims: vec![8, 64],
                },
                1 => TenantOp {
                    kind,
                    dataset: 0,
                    coord: vec![(h >> 16) % 4, (h >> 24) % 4],
                    sub_dims: vec![16, 16],
                },
                _ => TenantOp {
                    kind,
                    dataset: 0,
                    coord: vec![0, (h >> 16) % 8],
                    sub_dims: vec![64, 8],
                },
            }
        })
        .collect()
}

/// A tenant running a [`fig9_mix`] over one [`tenant_dataset`].
pub fn fig9_tenant(
    seed: u64,
    tenant: u32,
    weight: u64,
    arrival: Arrival,
    total_ops: u64,
    read_pct: u32,
) -> TenantSpec {
    TenantSpec {
        weight,
        depth: 4,
        arrival,
        datasets: vec![tenant_dataset()],
        ops: fig9_mix(seed, tenant, 8, read_pct),
        total_ops,
    }
}

/// The acceptance scenario: `tenants` equal-weight tenants, even ids
/// closed (4 outstanding) and odd ids open with a saturating 2 µs mean
/// inter-arrival gap, each running `ops_per_tenant` mixed operations
/// (75% reads). With 16 tenants this is the "16-tenant mixed
/// open/closed" run the determinism and fairness tests assert on.
pub fn mixed_open_closed(seed: u64, tenants: u32, ops_per_tenant: u64) -> TenantSet {
    let mut set = TenantSet::new(seed);
    for t in 0..tenants {
        let arrival = if t % 2 == 0 {
            Arrival::Closed { outstanding: 4 }
        } else {
            Arrival::Open {
                mean_gap: SimDuration::from_micros(2),
            }
        };
        set = set.with_tenant(fig9_tenant(seed, t, 1, arrival, ops_per_tenant, 75));
    }
    set
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_in_bounds() {
        let a = fig9_mix(11, 3, 32, 75);
        let b = fig9_mix(11, 3, 32, 75);
        assert_eq!(a, b);
        let (shape, _) = tenant_dataset();
        for op in &a {
            // Block coord × block shape stays inside the matrix.
            for ((&c, &s), &dim) in op
                .coord
                .iter()
                .zip(op.sub_dims.iter())
                .zip(shape.dims().iter())
            {
                assert!((c + 1) * s <= dim, "op out of bounds: {op:?}");
            }
        }
        assert!(a.iter().any(|op| op.kind == OpKind::Read));
        assert!(a.iter().any(|op| op.kind == OpKind::Write));
    }

    #[test]
    fn mixes_differ_across_tenants() {
        assert_ne!(fig9_mix(11, 0, 16, 75), fig9_mix(11, 1, 16, 75));
    }

    #[test]
    fn mixed_set_alternates_arrival_processes() {
        let set = mixed_open_closed(5, 4, 10);
        assert_eq!(set.tenants.len(), 4);
        let arrivals: Vec<bool> = set
            .tenants
            .iter()
            .map(|t| matches!(t.arrival, Arrival::Closed { .. }))
            .collect();
        assert_eq!(arrivals, vec![true, false, true, false]);
        assert!(set.tenants.iter().all(|t| t.total_ops == 10));
    }
}
