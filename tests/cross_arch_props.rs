//! Property tests across all four system architectures: arbitrary aligned
//! partitions of arbitrary (small) datasets return byte-identical data on
//! every architecture, equal to the in-memory reference slice.

use proptest::prelude::*;

use nds::core::{ElementType, Shape};
use nds::system::{
    BaselineSystem, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd, SystemConfig,
};

/// The in-memory reference: the canonical-order slice of the partition.
fn reference_slice(data: &[u8], view: &Shape, coord: &[u64], sub: &[u64], elem: usize) -> Vec<u8> {
    let region = nds::core::Region::from_request(view, coord, sub).expect("valid request");
    let mut out = vec![0u8; (region.volume() as usize) * elem];
    region
        .for_each_run(view, |buf, linear, len| {
            let src = (linear as usize) * elem;
            let dst = (buf as usize) * elem;
            let n = (len as usize) * elem;
            out[dst..dst + n].copy_from_slice(&data[src..src + n]);
        })
        .unwrap();
    out
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn all_architectures_serve_identical_partitions(
        w_exp in 4u32..=6,          // widths 16..=64
        h_exp in 4u32..=6,
        tiles in prop::collection::vec((0u64..4, 0u64..4), 1..6),
        seed in any::<u64>(),
    ) {
        let w = 1u64 << w_exp;
        let h = 1u64 << h_exp;
        let shape = Shape::new([w, h]);
        let sub = vec![w / 4, h / 4];
        let bytes: Vec<u8> = (0..w * h * 4)
            .map(|i| (i.wrapping_mul(seed | 1) % 251) as u8)
            .collect();

        let config = SystemConfig::small_test();
        let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
            Box::new(BaselineSystem::new(config.clone())),
            Box::new(SoftwareNds::new(config.clone())),
            Box::new(HardwareNds::new(config.clone())),
            Box::new(OracleSystem::with_tile(config, sub.clone())),
        ];
        let ids: Vec<_> = systems
            .iter_mut()
            .map(|sys| {
                let id = sys
                    .create_dataset(shape.clone(), ElementType::F32)
                    .expect("create");
                sys.write(id, &shape, &[0, 0], &[w, h], &bytes).expect("write");
                id
            })
            .collect();

        for (tx, ty) in tiles {
            let coord = vec![tx, ty];
            let expect = reference_slice(&bytes, &shape, &coord, &sub, 4);
            for (sys, id) in systems.iter_mut().zip(&ids) {
                let out = sys.read(*id, &shape, &coord, &sub).expect("read");
                prop_assert_eq!(
                    &out.data,
                    &expect,
                    "{} diverged at tile ({}, {})",
                    sys.name(),
                    tx,
                    ty
                );
                prop_assert_eq!(out.bytes, expect.len() as u64);
            }
        }
    }

    /// Writes through one architecture's partition API compose: writing
    /// random tiles then reading the full dataset equals the reference
    /// composition, on every architecture.
    #[test]
    fn tiled_writes_compose_identically(
        order in prop::collection::vec((0u64..4, 0u64..4, 0u8..=255), 1..10),
    ) {
        let n = 32u64;
        let shape = Shape::new([n, n]);
        let sub = vec![8u64, 8];
        let config = SystemConfig::small_test();
        let mut reference = vec![0u8; (n * n * 4) as usize];

        let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
            Box::new(BaselineSystem::new(config.clone())),
            Box::new(SoftwareNds::new(config.clone())),
            Box::new(HardwareNds::new(config.clone())),
            Box::new(OracleSystem::with_tile(config, sub.clone())),
        ];
        let ids: Vec<_> = systems
            .iter_mut()
            .map(|sys| sys.create_dataset(shape.clone(), ElementType::F32).expect("create"))
            .collect();

        for (tx, ty, fill) in order {
            let tile = vec![fill; 8 * 8 * 4];
            // Update the reference.
            for y in 0..8u64 {
                for x in 0..8u64 {
                    let off = (((ty * 8 + y) * n + tx * 8 + x) * 4) as usize;
                    reference[off..off + 4].copy_from_slice(&[fill; 4]);
                }
            }
            for (sys, id) in systems.iter_mut().zip(&ids) {
                sys.write(*id, &shape, &[tx, ty], &sub, &tile).expect("write");
            }
        }
        for (sys, id) in systems.iter_mut().zip(&ids) {
            let out = sys.read(*id, &shape, &[0, 0], &[n, n]).expect("read");
            prop_assert_eq!(&out.data, &reference, "{} composition", sys.name());
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(16))]

    /// Timing invariants every architecture must uphold: occupancy never
    /// exceeds latency, restructure is non-negative (trivially), and
    /// latency is positive for non-empty reads.
    #[test]
    fn occupancy_never_exceeds_latency(
        tx in 0u64..4,
        ty in 0u64..4,
        seed in any::<u64>(),
    ) {
        let n = 64u64;
        let shape = Shape::new([n, n]);
        let bytes: Vec<u8> = (0..n * n * 4)
            .map(|i| (i.wrapping_mul(seed | 1) % 251) as u8)
            .collect();
        let config = SystemConfig::small_test();
        let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
            Box::new(BaselineSystem::new(config.clone())),
            Box::new(SoftwareNds::new(config.clone())),
            Box::new(HardwareNds::new(config.clone())),
            Box::new(OracleSystem::with_tile(config, vec![16, 16])),
        ];
        for sys in &mut systems {
            let id = sys.create_dataset(shape.clone(), ElementType::F32).expect("create");
            sys.write(id, &shape, &[0, 0], &[n, n], &bytes).expect("write");
            let out = sys.read(id, &shape, &[tx, ty], &[16, 16]).expect("read");
            prop_assert!(
                out.io_occupancy <= out.io_latency,
                "{}: occupancy {} exceeds latency {}",
                sys.name(),
                out.io_occupancy,
                out.io_latency
            );
            prop_assert!(out.io_latency.as_nanos() > 0, "{}: zero latency", sys.name());
        }
    }
}
