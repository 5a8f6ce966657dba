//! The front-ends' data path never unwinds: an arbitrary
//! `(view, coord, sub_dims)` — wrong arity, a zero extent, out of bounds,
//! products that overflow `u64` — and a payload of the wrong length, through
//! `StorageFrontEnd::{read_into, write}` on all four architectures, is served
//! or refused with a typed `SystemError`; afterwards a valid read still
//! returns the bytes that were written. So is an arbitrary
//! `create_dataset` — any rank, element type and extents, up to byte sizes
//! past `u64` — and a dataset it creates round-trips an element.
//!
//! Seeds are pinned: the vendored `proptest` derives every case from the
//! test's name and the case index.

use proptest::prelude::*;

use nds_core::{ElementType, Shape};
use nds_system::{
    BaselineSystem, HardwareNds, OracleSystem, SoftwareNds, StorageFrontEnd, SystemConfig,
};

/// The dataset every case works on: 32 × 32 `f32`.
const SIDE: u64 = 32;
const BYTES: usize = (SIDE * SIDE * 4) as usize;

/// One request word: small values (the valid ones live here), the dataset's
/// own extents, zero, and words whose products leave 64 bits.
fn word((pick, raw): (u8, u64)) -> u64 {
    match pick {
        0..=3 => raw % 5,
        4 => [0, SIDE, SIDE * SIDE, SIDE / 4][raw as usize % 4],
        5 => 1 << (raw % 64),
        6 => u64::MAX - raw % 3,
        _ => raw,
    }
}

/// A coordinate or sub-dimensionality: usually of the dataset's rank, so
/// that requests get past the arity check, sometimes not.
fn words() -> impl Strategy<Value = Vec<u64>> {
    (0usize..8, prop::collection::vec((0u8..8, any::<u64>()), 4)).prop_map(|(arity, raw)| {
        let arity = [2, 2, 2, 2, 2, 0, 1, 4][arity];
        raw.into_iter().take(arity).map(word).collect()
    })
}

/// A view the caller could hold: anything `Shape::try_new` lets through
/// (which is where an overflowing volume stops), else the dataset's own.
fn view_of(dims: Vec<u64>, own: &Shape) -> Shape {
    Shape::try_new(dims).unwrap_or_else(|_| own.clone())
}

/// A shape to create: rank 1 to 4, each extent small, a power of two (so
/// that volumes and byte sizes reach and pass 64 bits) or any word.
fn created_shape() -> impl Strategy<Value = (Vec<u64>, ElementType)> {
    let extent = (0u8..4, any::<u64>()).prop_map(|(pick, raw)| match pick {
        0 => 1 + raw % 40,
        1 | 2 => 1 << (raw % 64),
        _ => raw,
    });
    let element = (0usize..4).prop_map(|i| {
        [
            ElementType::U8,
            ElementType::I32,
            ElementType::F32,
            ElementType::F64,
        ][i]
    });
    (prop::collection::vec(extent, 1..5), element)
}

fn pattern() -> Vec<u8> {
    (0..BYTES).map(|i| (i * 7 % 251) as u8).collect()
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    #[test]
    fn arbitrary_requests_are_served_or_refused_never_unwound(
        requests in prop::collection::vec(
            (words(), words(), words(), 0u8..4, (0u8..6, 0usize..70_000)),
            1..24,
        ),
        created in prop::collection::vec(created_shape(), 1..4),
    ) {
        let shape = Shape::new([SIDE, SIDE]);
        let config = SystemConfig::small_test();
        let mut systems: Vec<Box<dyn StorageFrontEnd>> = vec![
            Box::new(BaselineSystem::new(config.clone())),
            Box::new(SoftwareNds::new(config.clone())),
            Box::new(HardwareNds::new(config.clone())),
            Box::new(OracleSystem::with_tile(config, vec![8, 8])),
        ];
        let written = pattern();
        for sys in &mut systems {
            let id = sys.create_dataset(shape.clone(), ElementType::F32).expect("create");
            sys.write(id, &shape, &[0, 0], &[SIDE, SIDE], &written).expect("write");

            let mut buf = Vec::new();
            for (view, coord, sub, flavour, (len_pick, len)) in &requests {
                // Some requests keep the dataset's own view or a full-extent
                // sub-dimensionality, so every error class is reached, not
                // only the first check.
                let view = match flavour {
                    0 => shape.clone(),
                    1 => Shape::new([SIDE * SIDE]),
                    _ => view_of(view.clone(), &shape),
                };
                let _ = sys.read_into(id, &view, coord, sub, &mut buf);
                // A payload of the partition's size would overwrite the
                // pattern, so writes are always the wrong length for a
                // valid request: one byte off, empty, or arbitrary.
                let volume = sub.iter().try_fold(4u64, |v, &f| v.checked_mul(f));
                let wrong = match (len_pick, volume) {
                    (0, Some(v)) if v < 1 << 20 => v as usize + 1,
                    (1, Some(v)) if v < 1 << 20 => (v as usize).saturating_sub(1),
                    (2, _) => 0,
                    _ => *len,
                };
                if volume.is_none_or(|v| v != wrong as u64) {
                    let refused = sys.write(id, &view, coord, sub, &vec![0xEE; wrong]);
                    prop_assert!(
                        refused.is_err(),
                        "{} accepted {} bytes for {:?}/{:?} of {}", sys.name(), wrong, coord, sub, view
                    );
                }
            }

            // Nothing above may have disturbed the data or the front-end.
            let back = sys.read(id, &shape, &[0, 0], &[SIDE, SIDE]).expect("valid read");
            prop_assert!(back.data == written, "{} lost the written bytes", sys.name());
            let tile = sys.read(id, &shape, &[1, 2], &[8, 8]).expect("valid tile read");
            let expect: Vec<u8> = (16..24)
                .flat_map(|y| (8..16).map(move |x| (y * SIDE + x) as usize * 4))
                .flat_map(|at| written[at..at + 4].to_vec())
                .collect();
            prop_assert!(tile.data == expect, "{} mangled a tile", sys.name());

            // Creation is served or refused, never unwound, and what it
            // creates holds data: one element at the origin round-trips.
            for (dims, element) in &created {
                let Ok(shape) = Shape::try_new(dims.clone()) else { continue };
                let Ok(id) = sys.create_dataset(shape.clone(), *element) else { continue };
                let origin = vec![0; shape.ndims()];
                let one = vec![1; shape.ndims()];
                let value: Vec<u8> = (1..=element.size() as u8).collect();
                sys.write(id, &shape, &origin, &one, &value).expect("write to a created dataset");
                let back = sys.read(id, &shape, &origin, &one).expect("read of a created dataset");
                prop_assert!(back.data == value, "{} lost an element of {:?}", sys.name(), dims);
            }
        }
    }
}
