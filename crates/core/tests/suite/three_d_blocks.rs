//! 3-D building blocks (§4.1, equations (3)–(4)): blocks for 3-D spaces can
//! additionally spread over banks, forming sub-cubes whose complete fetch
//! exercises both channel- and bank-level parallelism.

use std::collections::HashSet;

use nds_core::{
    BlockDimensionality, DeviceSpec, ElementType, MemBackend, NvmBackend, Shape, Stl, StlConfig,
};

fn stl_3d() -> Stl<MemBackend> {
    let backend = MemBackend::new(DeviceSpec::new(8, 4, 512), 4096);
    Stl::new(
        backend,
        StlConfig {
            block_dimensionality: BlockDimensionality::ThreeD,
            ..StlConfig::default()
        },
    )
}

#[test]
fn three_d_blocks_are_cubes() {
    let mut stl = stl_3d();
    let shape = Shape::new([64, 64, 64]);
    let id = stl.create_space(shape, ElementType::F32).unwrap();
    let bb = stl.space(id).unwrap().block_shape().clone();
    // Eq. (3): 8 ch × 512 B × 4 banks = 16 KiB minimum; f32 ⇒ 4096 elements
    // ⇒ 2^⌈12/3⌉ = 16 per side.
    assert_eq!(bb.dims(), &[16, 16, 16]);
    assert_eq!(bb.unit_count(), 32); // 16 KiB / 512 B
}

#[test]
fn complete_3d_blocks_span_channels_and_banks() {
    let mut stl = stl_3d();
    let shape = Shape::new([32, 32, 32]);
    let id = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let data: Vec<u8> = (0..32u64 * 32 * 32 * 4).map(|i| (i % 251) as u8).collect();
    let report = stl
        .write(id, &shape, &[0, 0, 0], &[32, 32, 32], &data)
        .unwrap();
    let spec = stl.backend().spec();
    for block in &report.access.blocks {
        let channels: HashSet<u32> = block.units.iter().map(|u| u.channel).collect();
        let banks: HashSet<u32> = block.units.iter().map(|u| u.bank).collect();
        assert_eq!(
            channels.len() as u32,
            spec.channels,
            "3-D block {:?} must span all channels",
            block.coord
        );
        assert_eq!(
            banks.len() as u32,
            spec.banks_per_channel,
            "3-D block {:?} must span all banks (Eq. 3)",
            block.coord
        );
    }
}

#[test]
fn three_d_round_trip_with_sub_cube_reads() {
    let mut stl = stl_3d();
    let shape = Shape::new([32, 32, 32]);
    let id = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let data: Vec<u8> = (0..32u64 * 32 * 32 * 4)
        .map(|i| (i * 7 % 251) as u8)
        .collect();
    stl.write(id, &shape, &[0, 0, 0], &[32, 32, 32], &data)
        .unwrap();

    // An interior 8×8×8 sub-cube at cube coordinate (1, 2, 3).
    let (cube, _) = stl.read(id, &shape, &[1, 2, 3], &[8, 8, 8]).unwrap();
    for (i, chunk) in cube.chunks_exact(4).enumerate() {
        let x = 8 + (i % 8) as u64;
        let y = 16 + ((i / 8) % 8) as u64;
        let z = 24 + (i / 64) as u64;
        let src = (x + 32 * (y + 32 * z)) * 4;
        for k in 0..4u64 {
            assert_eq!(
                chunk[k as usize],
                ((src + k) * 7 % 251) as u8,
                "sub-cube element {i} byte {k}"
            );
        }
    }
}

#[test]
fn three_d_space_supports_2d_slab_views() {
    // The Fig. 5 elasticity also holds under 3-D blocks: a consumer can
    // still read 2-D slabs of the cube.
    let mut stl = stl_3d();
    let shape = Shape::new([32, 32, 32]);
    let id = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let data: Vec<u8> = (0..32u64 * 32 * 32 * 4).map(|i| (i % 251) as u8).collect();
    stl.write(id, &shape, &[0, 0, 0], &[32, 32, 32], &data)
        .unwrap();
    let view = Shape::new([32 * 32, 32]); // slabs flattened to rows
    let (slab, _) = stl.read(id, &view, &[0, 5], &[32 * 32, 1]).unwrap();
    let base = (5u64 * 32 * 32 * 4) as usize;
    assert_eq!(slab.as_slice(), &data[base..base + 32 * 32 * 4]);
}
