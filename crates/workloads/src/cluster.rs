//! Seeded workload mixes for the sharded cluster front-end.
//!
//! A cluster run is described by a flat list of [`ClusterOp`]s over one
//! shared dataset ([`cluster_dataset`]): Fig. 9-style row panels, tiles,
//! and column panels, each a read or a write with a per-op payload salt.
//! Everything is a pure function of the seed, so the same mix replayed
//! against a healthy cluster and a fault-plan cluster is the differential
//! pair the determinism checks diff.

use nds_core::{ElementType, Shape};
use nds_sim::splitmix64;

/// One operation of a cluster mix.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ClusterOp {
    /// True for a write (with payload derived from `salt`), false for a
    /// read.
    pub write: bool,
    /// Partition coordinate in the canonical view.
    pub coord: Vec<u64>,
    /// Partition extents in the canonical view.
    pub sub_dims: Vec<u64>,
    /// Seed for the write payload ([`payload_byte`]); zero for reads.
    pub salt: u64,
}

/// The shared cluster dataset: a 64×64 `f32` matrix (16 KiB). With the
/// bench default of 24 shard rows the shards split 24/24/16, so tiles in
/// rows 16..32 and 40..56 straddle shard boundaries — the reassembly path
/// is exercised, not just per-shard pass-through.
pub fn cluster_dataset() -> (Shape, ElementType) {
    (Shape::new([64, 64]), ElementType::F32)
}

/// Deterministic payload byte `i` of a write with `salt`.
pub fn payload_byte(salt: u64, i: u64) -> u8 {
    (splitmix64(salt ^ splitmix64(i)) & 0xff) as u8
}

/// A seeded command mix over [`cluster_dataset`]: row panels (8×64 in the
/// last dimension), 16×16 tiles, and column panels (64×8), read with
/// probability `read_pct`% and written otherwise. Writes carry a salt
/// derived from `(seed, op index)` so payloads are reproducible without
/// materializing them here.
pub fn cluster_mix(seed: u64, ops: usize, read_pct: u32) -> Vec<ClusterOp> {
    (0..ops as u64)
        .map(|i| {
            let h = splitmix64(seed ^ 0xc1a5_7e50 ^ i);
            let write = h % 100 >= u64::from(read_pct.min(100));
            let (coord, sub_dims) = match (h >> 8) % 3 {
                0 => (vec![0, (h >> 16) % 8], vec![64, 8]),
                1 => (vec![(h >> 16) % 4, (h >> 24) % 4], vec![16, 16]),
                _ => (vec![(h >> 16) % 8, 0], vec![8, 64]),
            };
            let salt = if write {
                splitmix64(seed ^ 0x5a17 ^ i)
            } else {
                0
            };
            ClusterOp {
                write,
                coord,
                sub_dims,
                salt,
            }
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn mix_is_deterministic_and_in_bounds() {
        let a = cluster_mix(9, 64, 60);
        assert_eq!(a, cluster_mix(9, 64, 60));
        let (shape, _) = cluster_dataset();
        for op in &a {
            for ((&c, &s), &dim) in op
                .coord
                .iter()
                .zip(op.sub_dims.iter())
                .zip(shape.dims().iter())
            {
                assert!((c + 1) * s <= dim, "op out of bounds: {op:?}");
            }
        }
        assert!(a.iter().any(|op| op.write));
        assert!(a.iter().any(|op| !op.write));
        assert!(a.iter().filter(|op| op.write).all(|op| op.salt != 0));
    }

    #[test]
    fn mixes_differ_across_seeds() {
        assert_ne!(cluster_mix(1, 32, 60), cluster_mix(2, 32, 60));
    }

    #[test]
    fn payload_bytes_vary_with_salt_and_index() {
        let a: Vec<u8> = (0..64).map(|i| payload_byte(7, i)).collect();
        let b: Vec<u8> = (0..64).map(|i| payload_byte(8, i)).collect();
        assert_ne!(a, b);
        assert_eq!(a, (0..64).map(|i| payload_byte(7, i)).collect::<Vec<u8>>());
    }
}
