//! Failure injection: the STL must degrade cleanly — typed errors, no
//! panics, no corruption of previously-written data — when the device runs
//! out of space or a backend misbehaves under it.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use nds_core::testing::FlakyBackend;
use nds_core::{DeviceSpec, ElementType, MemBackend, NdsError, NvmBackend, Shape, Stl, StlConfig};

#[test]
fn device_exhaustion_surfaces_as_device_full() {
    // A device that can hold one 64×64 f32 space but not two.
    let spec = DeviceSpec::new(4, 2, 512);
    let backend = MemBackend::new(spec, 6); // 8 lanes × 6 units = 24 KiB
    let mut stl = Stl::new(backend, StlConfig::default());
    let shape = Shape::new([64, 64]);
    let a = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let data = vec![1u8; 64 * 64 * 4];
    stl.write(a, &shape, &[0, 0], &[64, 64], &data).unwrap();

    let b = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let err = stl
        .write(b, &shape, &[0, 0], &[64, 64], &data)
        .expect_err("second space cannot fit");
    assert!(matches!(err, NdsError::DeviceFull { .. }), "got {err}");

    // The first space is untouched.
    let (out, _) = stl.read(a, &shape, &[0, 0], &[64, 64]).unwrap();
    assert_eq!(out, data);
}

#[test]
fn deleting_a_space_recovers_from_exhaustion() {
    let spec = DeviceSpec::new(4, 2, 512);
    let backend = MemBackend::new(spec, 6);
    let mut stl = Stl::new(backend, StlConfig::default());
    let shape = Shape::new([64, 64]);
    let data = vec![1u8; 64 * 64 * 4];
    let a = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    stl.write(a, &shape, &[0, 0], &[64, 64], &data).unwrap();
    let b = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    assert!(stl.write(b, &shape, &[0, 0], &[64, 64], &data).is_err());

    // Deleting the first space frees its units; the second now fits.
    stl.delete_space(a).unwrap();
    stl.write(b, &shape, &[0, 0], &[64, 64], &data)
        .expect("space freed by delete");
    let (out, _) = stl.read(b, &shape, &[0, 0], &[64, 64]).unwrap();
    assert_eq!(out, data);
}

#[test]
fn mid_write_allocation_failure_is_typed_and_prior_data_survives() {
    let spec = DeviceSpec::new(4, 2, 512);
    // Enough budget for the first write plus part of the second.
    let backend = FlakyBackend::with_alloc_budget(spec, 1024, 40);
    let mut stl = Stl::new(backend, StlConfig::default());
    let shape = Shape::new([64, 64]);
    let data: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
    // 64×64 f32 = 16 KiB = 32 units: fits the budget.
    let a = stl_space(&mut stl, &shape);
    stl.write(a, &shape, &[0, 0], &[64, 64], &data)
        .expect("first write within budget");

    // The second write exhausts the remaining 8 allocations mid-flight.
    let b = stl_space(&mut stl, &shape);
    let err = stl
        .write(b, &shape, &[0, 0], &[64, 64], &data)
        .expect_err("budget exhausted mid-write");
    assert!(matches!(err, NdsError::DeviceFull { .. }));

    // The first space still reads back exactly.
    let first = nds_core::SpaceId(1);
    let (out, _) = stl.read(first, &shape, &[0, 0], &[64, 64]).unwrap();
    assert_eq!(out, data);
}

#[test]
fn a_refused_unit_write_is_typed_and_the_block_keeps_what_it_had() {
    let spec = DeviceSpec::new(4, 2, 512);
    let mut stl = Stl::new(FlakyBackend::new(spec, 1024), StlConfig::default());
    let shape = Shape::new([64, 64]);
    let id = stl_space(&mut stl, &shape);
    let old: Vec<u8> = (0..64 * 64 * 4).map(|i| (i % 251) as u8).collect();
    stl.write(id, &shape, &[0, 0], &[64, 64], &old)
        .expect("first write");
    let free = |stl: &Stl<FlakyBackend>| -> usize {
        (0..4)
            .flat_map(|c| (0..2).map(move |b| (c, b)))
            .map(|(c, b)| stl.backend().free_units(c, b))
            .sum()
    };
    let free_before = free(&stl);

    stl.backend_mut().fail_next_writes(1);
    let err = stl
        .write(id, &shape, &[0, 0], &[64, 64], &vec![0xEE; old.len()])
        .expect_err("the medium refused the first unit");
    assert!(matches!(err, NdsError::Backend { .. }), "{err}");

    // Nothing was superseded and the handle allocated for the refused write
    // went back to its lane.
    let (out, _) = stl.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
    assert_eq!(out, old);
    assert_eq!(free(&stl), free_before);
}

#[test]
fn a_partial_write_over_an_unreadable_unit_is_typed_and_changes_nothing() {
    let spec = DeviceSpec::new(4, 2, 512);
    let mut stl = Stl::new(FlakyBackend::new(spec, 1024), StlConfig::default());
    let shape = Shape::new([64, 64]);
    let id = stl.create_space(shape.clone(), ElementType::U8).unwrap();
    let old: Vec<u8> = (0..64 * 64).map(|i| 1 + (i % 251) as u8).collect();
    stl.write(id, &shape, &[0, 0], &[64, 64], &old)
        .expect("first write");

    // One element of a 512-byte unit: the write must read the unit's other
    // 511 bytes, and the backend cannot produce them.
    stl.backend_mut().fail_next_reads(1);
    let err = stl
        .write(id, &shape, &[0, 0], &[1, 1], &[0xEE])
        .expect_err("the unit to merge into is unreadable");
    assert!(matches!(err, NdsError::MissingUnit(_)), "{err}");

    let (out, _) = stl.read(id, &shape, &[0, 0], &[64, 64]).unwrap();
    assert_eq!(out, old);
}

fn stl_space<B: NvmBackend>(stl: &mut Stl<B>, shape: &Shape) -> nds_core::SpaceId {
    stl.create_space(shape.clone(), ElementType::F32)
        .expect("space creation is metadata-only")
}

#[test]
fn malformed_requests_never_touch_the_device() {
    let spec = DeviceSpec::new(4, 2, 512);
    let backend = MemBackend::new(spec, 64);
    let mut stl = Stl::new(backend, StlConfig::default());
    let shape = Shape::new([32, 32]);
    let id = stl.create_space(shape.clone(), ElementType::F32).unwrap();

    // Out-of-bounds, arity, volume, and payload errors all come back typed.
    assert!(matches!(
        stl.read(id, &shape, &[4, 0], &[16, 16]),
        Err(NdsError::OutOfBounds { .. })
    ));
    assert!(matches!(
        stl.read(id, &shape, &[0], &[16]),
        Err(NdsError::ArityMismatch { .. })
    ));
    assert!(matches!(
        stl.read(id, &Shape::new([33, 32]), &[0, 0], &[1, 1]),
        Err(NdsError::ViewVolumeMismatch { .. })
    ));
    assert!(matches!(
        stl.write(id, &shape, &[0, 0], &[8, 8], &[0u8; 3]),
        Err(NdsError::BadPayloadSize { .. })
    ));
    // Nothing was allocated by any of the failures.
    assert_eq!(stl.space(id).unwrap().tree().allocated_blocks(), 0);
}
