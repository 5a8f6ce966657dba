//! Brute-force oracle test for the space translator: every segment mapping
//! the translator produces must agree with a per-element reference that
//! walks coordinates one at a time through the canonical linearization and
//! the block decomposition independently.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use proptest::prelude::*;

use nds_core::{translator, BlockShape, ElementType, Region, Shape};

#[path = "support/strategies.rs"]
mod strategies;

use strategies::{region_in, shape_strategy};

/// Per-element reference: for each element of `region` (in view order),
/// compute `(block coordinate, intra-block byte offset)` directly.
fn element_oracle(
    space: &Shape,
    bb: &BlockShape,
    view: &Shape,
    region: &Region,
) -> Vec<(Vec<u64>, u64)> {
    let mut mapping = Vec::new();
    // Walk the region in view row-major order (fastest dim first).
    let ndims = region.ndims();
    let mut counter = vec![0u64; ndims];
    let volume = region.volume();
    for _ in 0..volume {
        let coord: Vec<u64> = (0..ndims).map(|i| region.origin[i] + counter[i]).collect();
        let linear = view.linear_index(&coord).unwrap();
        let storage = space.coord_at(linear).unwrap();
        let block: Vec<u64> = storage
            .iter()
            .zip(bb.dims())
            .map(|(&x, &b)| x / b)
            .collect();
        let mut intra = 0u64;
        let mut stride = 1u64;
        for (i, &x) in storage.iter().enumerate() {
            intra += (x % bb.dims()[i]) * stride;
            stride *= bb.dims()[i];
        }
        mapping.push((block, intra * u64::from(bb.element_bytes())));
        // Odometer.
        for (i, digit) in counter.iter_mut().enumerate() {
            *digit += 1;
            if *digit < region.extent[i] {
                break;
            }
            *digit = 0;
        }
    }
    mapping
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Expanding the translator's segments element-by-element reproduces
    /// the oracle mapping exactly, in exactly the buffer order.
    #[test]
    fn translation_matches_per_element_oracle(
        (shape, region) in shape_strategy(24).prop_flat_map(|s| {
            let r = region_in(&s);
            (Just(s), r)
        }),
        bb_exp in 0u32..=3,
    ) {
        // A deliberately odd device so blocks rarely align with the space.
        let spec = nds_core::DeviceSpec::new(1 << bb_exp, 2, 16);
        let bb = BlockShape::for_space(
            &shape,
            ElementType::F32,
            spec,
            nds_core::BlockDimensionality::Auto,
            1,
        );
        let t = translator::translate_region(&shape, &bb, &shape, &region).unwrap();
        let oracle = element_oracle(&shape, &bb, &shape, &region);
        let elem = u64::from(bb.element_bytes());

        // Expand segments into per-element (block, intra-offset) pairs
        // indexed by buffer position.
        let mut expanded: Vec<Option<(Vec<u64>, u64)>> = vec![None; oracle.len()];
        for cover in &t.blocks {
            for seg in &cover.segments {
                prop_assert_eq!(seg.len % elem, 0);
                prop_assert_eq!(seg.buffer_offset % elem, 0);
                for k in 0..seg.len / elem {
                    let buffer_index = (seg.buffer_offset / elem + k) as usize;
                    prop_assert!(expanded[buffer_index].is_none(), "element covered twice");
                    expanded[buffer_index] =
                        Some((cover.coord.clone(), seg.block_offset + k * elem));
                }
            }
        }
        for (i, (got, want)) in expanded.iter().zip(&oracle).enumerate() {
            let got = got.as_ref().unwrap_or_else(|| panic!("element {i} uncovered"));
            prop_assert_eq!(&got.0, &want.0, "block coord of element {}", i);
            prop_assert_eq!(got.1, want.1, "intra offset of element {}", i);
        }
    }

    /// The plan's read-assembly order: its spans tile `[0, total_bytes)`
    /// exactly and in order, none crosses a unit boundary, and each names
    /// the block byte the segments put at that buffer byte. Per cover, the
    /// segments ascend in the block image (the STL walks units in that
    /// order) and `try_for_each_unit` lists exactly the units they touch.
    #[test]
    fn spans_tile_the_buffer_in_order_and_agree_with_segments(
        (shape, view, region) in (shape_strategy(24), any::<bool>()).prop_flat_map(|(s, flat)| {
            // The space's own shape, or the same elements as one long row.
            let view = if flat { Shape::new([s.volume()]) } else { s.clone() };
            let r = region_in(&view);
            (Just(s), Just(view), r)
        }),
        bb_exp in 0u32..=3,
        wide in any::<bool>(),
    ) {
        let spec = nds_core::DeviceSpec::new(1 << bb_exp, 2, 16);
        let element = if wide { ElementType::F64 } else { ElementType::F32 };
        let bb = BlockShape::for_space(
            &shape,
            element,
            spec,
            nds_core::BlockDimensionality::Auto,
            1,
        );
        let t = translator::translate_region(&shape, &bb, &view, &region).unwrap();
        let unit = u64::from(t.unit_bytes);
        prop_assert_eq!(unit, 16);
        prop_assert_eq!(t.spans.is_empty(), t.blocks.len() <= 1, "one cover needs no list");

        // Buffer byte → (cover index, block byte), from the segments.
        let mut placed = vec![None; t.total_bytes as usize];
        for (index, cover) in t.blocks.iter().enumerate() {
            let mut units = Vec::new();
            let mut image_end = 0;
            for seg in &cover.segments {
                prop_assert!(seg.block_offset >= image_end, "segments ascend in the block");
                image_end = seg.block_offset + seg.len;
                for k in 0..seg.len {
                    placed[(seg.buffer_offset + k) as usize] = Some((index, seg.block_offset + k));
                    units.push((seg.block_offset + k) / unit);
                }
            }
            units.dedup();
            let mut listed = Vec::new();
            cover
                .try_for_each_unit(unit, |u| {
                    listed.push(u);
                    Ok::<(), ()>(())
                })
                .unwrap();
            prop_assert_eq!(listed, units);
        }

        let mut cursor = 0u64;
        t.try_for_each_span(|span| {
            prop_assert!(span.len > 0);
            prop_assert!(u64::from(span.unit_offset + span.len) <= unit, "span crosses a unit");
            let at = u64::from(span.unit) * unit + u64::from(span.unit_offset);
            for k in 0..u64::from(span.len) {
                prop_assert_eq!(
                    placed[(cursor + k) as usize],
                    Some((span.block as usize, at + k)),
                    "buffer byte {}", cursor + k
                );
            }
            cursor += u64::from(span.len);
            Ok(())
        })?;
        prop_assert_eq!(cursor, t.total_bytes);
    }

    /// Reshaped views: translating through a factorized view of the same
    /// volume still matches the oracle computed through that view.
    #[test]
    fn reshaped_translation_matches_oracle(
        w_exp in 1u32..=4,
        h_exp in 1u32..=4,
        seed in 0u64..1000,
    ) {
        let w = 1u64 << w_exp;
        let h = 1u64 << h_exp;
        let space = Shape::new([w * h]);
        // A 2-D view of the 1-D space.
        let view = Shape::new([w, h]);
        let spec = nds_core::DeviceSpec::new(4, 2, 16);
        let bb = BlockShape::for_space(
            &space,
            ElementType::F32,
            spec,
            nds_core::BlockDimensionality::Auto,
            1,
        );
        // A deterministic pseudorandom aligned region.
        let ox = seed % w;
        let oy = (seed / 7) % h;
        let region = Region {
            origin: vec![ox, oy],
            extent: vec![w - ox, h - oy],
        };
        let t = translator::translate_region(&space, &bb, &view, &region).unwrap();
        let oracle = element_oracle(&space, &bb, &view, &region);
        let covered: u64 = t.blocks.iter().map(|b| b.bytes()).sum();
        prop_assert_eq!(covered, oracle.len() as u64 * 4);
    }
}

/// A view of `space`'s elements: its own shape, one long row, or the
/// dimensions reversed.
fn view_of(space: &Shape, kind: u32) -> Shape {
    match kind % 3 {
        1 => Shape::new([space.volume()]),
        2 => Shape::new(space.dims().iter().rev().copied().collect::<Vec<_>>()),
        _ => space.clone(),
    }
}

/// A partition request inside `view`: per dimension any extent and any
/// partition coordinate whose partition still fits.
fn request_in(view: &Shape) -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let per_dim: Vec<_> = view
        .dims()
        .iter()
        .map(|&d| (1..=d).prop_flat_map(move |sub| (0..d / sub, Just(sub))))
        .collect();
    per_dim.prop_map(|pairs| pairs.into_iter().unzip())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(256))]

    /// Relocated plan ≡ fresh plan: the canonical request's plan, moved by
    /// the block base `canonicalize` reports, is `translate` of the request
    /// field for field — covers, coordinates, segments, span order, totals —
    /// for spaces that are no multiple of their blocks (so edge blocks
    /// relocate too), blocks of any shape, both element sizes, and views
    /// that reduce per dimension (the space's own) or not at all (flat,
    /// reversed).
    #[test]
    fn canonical_plan_rebased_equals_the_fresh_plan(
        (space, block_dims, view, (coord, sub)) in
            (prop::collection::vec(1u64..=40, 1..=3), 0u32..3).prop_flat_map(|(dims, kind)| {
                let space = Shape::new(dims);
                let block = prop::collection::vec(1u64..=9, space.ndims()..=space.ndims());
                let view = view_of(&space, kind);
                let request = request_in(&view);
                (Just(space), block, Just(view), request)
            }),
        wide in any::<bool>(),
        unit_exp in 3u32..=6,
    ) {
        let bb = BlockShape::custom(block_dims, if wide { 8 } else { 4 }, 1 << unit_exp);
        let fresh = translator::translate(&space, &bb, &view, &coord, &sub).unwrap();

        let (mut origin, mut base) = (vec![99; 5], vec![99; 5]); // stale scratch
        translator::canonicalize(&space, &bb, &view, &coord, &sub, &mut origin, &mut base)
            .unwrap();
        prop_assert_eq!(base.len(), space.ndims());
        let canonical = Region { origin: origin.clone(), extent: sub.clone() };
        let plan = translator::translate_region(&space, &bb, &view, &canonical).unwrap();
        let mut moved = plan;
        for cover in &mut moved.blocks {
            cover.coord.iter_mut().zip(&base).for_each(|(c, b)| *c += b);
        }
        prop_assert_eq!(moved, fresh);

        // Canonical means it: the canonical request reduces no further, and
        // in the space's own view it starts inside the first block.
        let at_origin: Vec<u64> = origin.iter().zip(&sub).map(|(o, f)| o / f).collect();
        if origin.iter().zip(&sub).all(|(o, f)| o % f == 0) {
            let (mut again, mut rest) = (Vec::new(), Vec::new());
            translator::canonicalize(&space, &bb, &view, &at_origin, &sub, &mut again, &mut rest)
                .unwrap();
            prop_assert_eq!(&again, &origin);
            prop_assert!(rest.iter().all(|&b| b == 0));
        }
        if view == space {
            prop_assert!(origin.iter().zip(bb.dims()).all(|(o, b)| o < b));
        } else {
            let absolute: Vec<u64> = coord.iter().zip(&sub).map(|(c, f)| c * f).collect();
            prop_assert_eq!(&origin, &absolute);
            prop_assert!(base.iter().all(|&b| b == 0));
        }
    }
}

/// A request `canonicalize` rejects is one `translate` rejects, with the
/// same error — before any key could be formed from it — and coordinates
/// whose products overflow are out of bounds, not a wrap.
#[test]
fn canonicalize_rejects_what_translate_rejects() {
    let space = Shape::new([64, 48]);
    let bb = BlockShape::custom([16, 16], 4, 64);
    let flat = Shape::new([64 * 48]);
    let cases: [(&Shape, &[u64], &[u64]); 7] = [
        (&space, &[4, 0], &[16, 16]),            // one block past the edge
        (&space, &[0, 3], &[16, 16]),            // same, slow dimension
        (&space, &[u64::MAX, 0], &[16, 16]),     // coord · extent overflows
        (&space, &[1, u64::MAX / 2], &[16, 16]), // wraps to "in bounds" if unchecked
        (&space, &[0], &[16]),                   // arity
        (&space, &[0, 0], &[16, 0]),             // empty extent
        (&flat, &[3], &[1024]),                  // past the end of a flat view
    ];
    for (view, coord, sub) in cases {
        let (mut origin, mut base) = (Vec::new(), Vec::new());
        let got = translator::canonicalize(&space, &bb, view, coord, sub, &mut origin, &mut base);
        let want = translator::translate(&space, &bb, view, coord, sub).map(|_| ());
        assert!(want.is_err(), "{coord:?} × {sub:?} should be rejected");
        assert_eq!(got, want, "{coord:?} × {sub:?}");
    }
    let wrong_volume = Shape::new([64, 47]);
    let (mut origin, mut base) = (Vec::new(), Vec::new());
    assert!(matches!(
        translator::canonicalize(
            &space,
            &bb,
            &wrong_volume,
            &[0, 0],
            &[1, 1],
            &mut origin,
            &mut base
        ),
        Err(nds_core::NdsError::ViewVolumeMismatch { .. })
    ));
}
