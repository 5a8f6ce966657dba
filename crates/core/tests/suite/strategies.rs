//! The device and the strategies `proptests`, `plan_cache_props` and
//! `translator_oracle` draw their spaces from.

use proptest::prelude::*;

use nds_core::{DeviceSpec, Region, Shape};

/// A small device: 4 channels × 2 banks of 64-byte units.
pub(crate) fn spec() -> DeviceSpec {
    DeviceSpec::new(4, 2, 64)
}

/// A small but varied space shape: 1–3 dims of 1..=`max_side` elements.
pub(crate) fn shape_strategy(max_side: u64) -> impl Strategy<Value = Shape> {
    prop::collection::vec(1u64..=max_side, 1..=3).prop_map(Shape::new)
}

/// A region fully inside `shape`.
pub(crate) fn region_in(shape: &Shape) -> impl Strategy<Value = Region> {
    let dims: Vec<u64> = shape.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&d| (0..d).prop_flat_map(move |o| (Just(o), 1..=d - o)))
        .collect();
    per_dim.prop_map(|pairs| {
        let (origin, extent): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
        Region { origin, extent }
    })
}
