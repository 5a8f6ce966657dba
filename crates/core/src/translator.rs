//! The space translator (§4.3, equation (5)).
//!
//! The translator is what lets "an application … work with its own
//! multi-dimensional space … regardless of that space's representation in
//! storage": given a request — a *view* shape of the same total volume as
//! the space, a coordinate, and a sub-dimensionality — it computes exactly
//! which building blocks the request touches and which byte ranges of each
//! block map to which byte ranges of the application's dense buffer.
//!
//! Where the paper's equation (5) describes the set of covered block
//! coordinates `Yᵢ` along each dimension, this module computes the same
//! cover constructively: the request region is decomposed into contiguous
//! element runs, each run is mapped through the canonical linearization
//! (shared by every view of a space — see [`Shape`]), and the
//! resulting storage-space runs are split at building-block boundaries into
//! copy [`Segment`]s. The segment list is simultaneously the *cover* (for
//! locating blocks), the *assembly plan* (for gathering reads), and the
//! *decomposition plan* (for scattering writes) — one translation serves
//! both directions, as §4.4 requires.

use std::collections::BTreeMap;

use serde::{Deserialize, Serialize};

use crate::block::BlockShape;
use crate::error::NdsError;
use crate::shape::{check_request, Region, Shape};

/// One contiguous byte copy between a building block's sequential image and
/// the request's dense buffer.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Segment {
    /// Byte offset within the block's sequential image.
    pub block_offset: u64,
    /// Byte offset within the request's dense buffer.
    pub buffer_offset: u64,
    /// Contiguous length in bytes.
    pub len: u64,
}

/// All segments of one building block touched by a request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct BlockCover {
    /// The building-block coordinate (fastest dimension first).
    pub coord: Vec<u64>,
    /// Copy segments, in ascending buffer order — which, within one block,
    /// is ascending block-image order too: the buffer follows the canonical
    /// linearization, and a block's image keeps the relative order of the
    /// elements it holds.
    pub segments: Vec<Segment>,
}

impl BlockCover {
    /// Total bytes this block contributes to the request.
    pub fn bytes(&self) -> u64 {
        self.segments.iter().map(|s| s.len).sum()
    }

    /// Calls `f` with the index of every access unit (of `unit_bytes` bytes)
    /// the cover touches, once each, in ascending order.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_for_each_unit<E>(
        &self,
        unit_bytes: u64,
        mut f: impl FnMut(u64) -> Result<(), E>,
    ) -> Result<(), E> {
        // Units below `next`, the bytes below `listed`, are done with.
        let (mut next, mut listed) = (0, 0);
        for seg in &self.segments {
            let seg_end = seg.block_offset + seg.len;
            if seg_end > listed {
                let first = (seg.block_offset / unit_bytes).max(next);
                next = seg_end.div_ceil(unit_bytes);
                listed = next * unit_bytes;
                (first..next).try_for_each(&mut f)?;
            }
        }
        Ok(())
    }
}

/// One piece of the read assembly: `len` bytes at `unit_offset` of access
/// unit `unit` of cover `block`. Spans never cross a unit boundary, and
/// their position in the request's dense buffer is implicit — the spans of a
/// request, in order, tile it exactly.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct Span {
    /// Index of the cover in [`Translation::blocks`].
    pub block: u32,
    /// Access unit within the block, in sequential block order.
    pub unit: u32,
    /// Byte offset within the unit.
    pub unit_offset: u32,
    /// Contiguous length in bytes.
    pub len: u32,
}

/// Most spans reserved ahead of need when a plan starts its span list; a
/// longer list grows as it goes, which its own length amortizes.
const MAX_RESERVED: u64 = 4096;

/// The bytes `[block_offset, block_offset + len)` of cover `block`'s image,
/// cut at unit boundaries. [`translate_region`] has checked that every unit
/// index of the block fits a `u32`; offsets and lengths inside a unit are at
/// most `unit_bytes`, itself a `u32`.
pub(crate) fn unit_spans(
    block: u32,
    block_offset: u64,
    len: u64,
    unit_bytes: u32,
) -> impl Iterator<Item = Span> {
    let unit_bytes = u64::from(unit_bytes);
    let end = block_offset + len;
    let mut at = block_offset;
    std::iter::from_fn(move || {
        (at < end).then(|| {
            let unit_offset = at % unit_bytes;
            let take = (end - at).min(unit_bytes - unit_offset);
            let span = Span {
                block,
                unit: (at / unit_bytes) as u32,
                unit_offset: unit_offset as u32,
                len: take as u32,
            };
            at += take;
            span
        })
    })
}

/// The result of translating one request.
#[derive(Debug, Clone, PartialEq, Eq, Serialize, Deserialize)]
pub struct Translation {
    /// Covered blocks, in ascending coordinate order (deterministic).
    pub blocks: Vec<BlockCover>,
    /// Total bytes moved by the request.
    pub total_bytes: u64,
    /// The read-assembly order of a request that covers more than one block:
    /// every byte of every cover, cut at unit boundaries, in ascending buffer
    /// order. Empty for a one-cover plan, whose order is its segment order —
    /// walk either kind with [`try_for_each_span`](Self::try_for_each_span).
    pub spans: Vec<Span>,
    /// The access-unit size the spans are cut at.
    pub unit_bytes: u32,
}

impl Translation {
    /// Calls `f` with the [`Span`]s of the request in ascending buffer
    /// order: appending each span's bytes (zeros where its unit is not
    /// stored) to an empty buffer assembles the request, every byte written
    /// once.
    ///
    /// # Errors
    ///
    /// The first error `f` returns.
    pub fn try_for_each_span<E>(&self, mut f: impl FnMut(Span) -> Result<(), E>) -> Result<(), E> {
        if let [only] = self.blocks.as_slice() {
            only.segments.iter().try_for_each(|seg| {
                unit_spans(0, seg.block_offset, seg.len, self.unit_bytes).try_for_each(&mut f)
            })
        } else {
            self.spans.iter().copied().try_for_each(f)
        }
    }

    /// Number of distinct building blocks covered.
    pub fn block_count(&self) -> usize {
        self.blocks.len()
    }

    /// Number of contiguous copy segments — the count of memcpy operations
    /// an assembler performs, which the host CPU model charges for.
    pub fn segment_count(&self) -> u64 {
        self.blocks.iter().map(|b| b.segments.len() as u64).sum()
    }

    /// Length of the smallest copy segment in bytes (0 if no segments) —
    /// small segments are what make software assembly expensive (§7.1).
    pub fn min_segment_bytes(&self) -> u64 {
        self.blocks
            .iter()
            .flat_map(|b| b.segments.iter().map(|s| s.len))
            .min()
            .unwrap_or(0)
    }
}

/// A view shows all of a space's elements, in another shape.
fn check_volume(space: &Shape, view: &Shape) -> Result<(), NdsError> {
    if view.volume() != space.volume() {
        return Err(NdsError::ViewVolumeMismatch {
            space: space.volume(),
            view: view.volume(),
        });
    }
    Ok(())
}

/// Translates a `(view, coord, sub_dims)` request over a space into its
/// building-block cover and copy plan.
///
/// # Errors
///
/// * [`NdsError::ViewVolumeMismatch`] if `view` and `space` volumes differ.
/// * [`NdsError::ArityMismatch`] / [`NdsError::OutOfBounds`] /
///   [`NdsError::EmptyShape`] for malformed requests (see
///   [`Region::from_request`]).
///
/// # Example
///
/// ```
/// use nds_core::{translator, BlockDimensionality, BlockShape, DeviceSpec, ElementType, Shape};
///
/// # fn main() -> Result<(), nds_core::NdsError> {
/// let space = Shape::new([256, 256]);
/// let bb = BlockShape::for_space(
///     &space, ElementType::F32, DeviceSpec::new(8, 8, 4096),
///     BlockDimensionality::Auto, 1);
/// // Fetch the [1, 1] 128×128 tile: exactly one 128×128 building block.
/// let t = translator::translate(&space, &bb, &space, &[1, 1], &[128, 128])?;
/// assert_eq!(t.block_count(), 1);
/// assert_eq!(t.blocks[0].coord, vec![1, 1]);
/// assert_eq!(t.total_bytes, 128 * 128 * 4);
/// # Ok(())
/// # }
/// ```
pub fn translate(
    space: &Shape,
    bb: &BlockShape,
    view: &Shape,
    coord: &[u64],
    sub_dims: &[u64],
) -> Result<Translation, NdsError> {
    check_volume(space, view)?;
    let region = Region::from_request(view, coord, sub_dims)?;
    translate_region(space, bb, view, &region)
}

/// Validates a request exactly as [`translate`] does and reduces it to its
/// *canonical* form — the request, a whole number of building blocks closer
/// to the origin, that has the same plan: `origin` receives the canonical
/// region's first element (its extent is `sub_dims`), `base` how many
/// blocks the request lies from it along each dimension of the space.
/// [`translate_region`] of the canonical region, each cover's coordinate
/// moved by `base`, equals [`translate`] of the request field for field.
///
/// That holds because [`translate_region`] derives a block's coordinate and
/// the offset inside it from `x / b` and `x % b` of each storage coordinate
/// `x`, with full-block strides: moving every `x` of a request by a multiple
/// of `b` changes block coordinates — all by the same amount, so not their
/// order — and nothing else, edge blocks included.
///
/// * Through the space's own shape a request's storage coordinates are its
///   view coordinates, so every dimension reduces on its own:
///   `base = origin / b`, `origin %= b`.
/// * Through any other view the request keeps its absolute origin
///   (`base = 0`), always correct: such views still share plans across
///   spaces of one geometry, only not across positions inside one.
///
/// # Errors
///
/// Same as [`translate`]; `origin` and `base` are unspecified then.
pub fn canonicalize(
    space: &Shape,
    bb: &BlockShape,
    view: &Shape,
    coord: &[u64],
    sub_dims: &[u64],
    origin: &mut Vec<u64>,
    base: &mut Vec<u64>,
) -> Result<(), NdsError> {
    check_volume(space, view)?;
    // Bounds first: every product below is of in-bounds coordinates.
    check_request(view, coord, sub_dims)?;
    origin.clear();
    origin.extend(coord.iter().zip(sub_dims).map(|(c, f)| c * f));
    base.clear();
    base.resize(space.ndims(), 0);
    if view.dims() == space.dims() {
        for ((o, shift), &b) in origin.iter_mut().zip(base.iter_mut()).zip(bb.dims()) {
            let b = b.max(1);
            *shift = *o / b;
            *o %= b;
        }
    }
    Ok(())
}

/// Translates an arbitrary element region of `view` (used internally and by
/// systems that address by element origin rather than partition coordinate).
///
/// # Errors
///
/// [`NdsError::ViewVolumeMismatch`] if `view` and `space` volumes differ;
/// [`Region::for_each_run`]'s errors if `region` is not a box inside `view`.
pub fn translate_region(
    space: &Shape,
    bb: &BlockShape,
    view: &Shape,
    region: &Region,
) -> Result<Translation, NdsError> {
    check_volume(space, view)?;
    let elem = bb.element_bytes() as u64;
    let unit_bytes = bb.unit_bytes();
    // A span names its unit in 32 bits: refuse a block too large for that
    // here, once, so cutting spans never has to.
    if u32::try_from(bb.unit_count()).is_err() {
        return Err(NdsError::PlanTooLarge);
    }
    let d1 = space.dim(0);
    // Per dimension: the block extent and how many blocks tile the space.
    let grid: Vec<(u64, u64)> = space
        .dims()
        .iter()
        .zip(bb.dims())
        .map(|(&d, &b)| (b.max(1), d.div_ceil(b.max(1))))
        .collect();
    // Shapes are non-empty by construction; fall back to 1 rather than index.
    let bb1 = grid.first().map_or(1, |&(b, _)| b);
    // Blocks are keyed by their rank in ascending coordinate order (dimension
    // 0 most significant, as `Vec<u64>` coordinates compare), so collecting a
    // segment costs one integer key, not a coordinate vector; the coordinate
    // is rebuilt once per covered block at the end.
    let upper_blocks: u64 = grid.iter().skip(1).map(|&(_, g)| g).product();
    // Each block also remembers its ordinal: how many blocks the request
    // reached before it, in buffer order.
    let mut per_block: BTreeMap<u64, (u32, Vec<Segment>)> = BTreeMap::new();
    let mut total_bytes = 0u64;
    // Segments are produced in ascending buffer order, so cutting each at
    // unit boundaries as it appears yields the assembly order with no sort.
    // Nothing is recorded until a second block shows up (a one-cover plan's
    // order is its segment list); until the blocks have their final indices
    // a span names its block by ordinal.
    let mut spans: Vec<Span> = Vec::new();
    let request_bytes = region.volume() * elem;
    let append = |spans: &mut Vec<Span>, ordinal: u32, seg: &Segment| {
        for span in unit_spans(ordinal, seg.block_offset, seg.len, unit_bytes) {
            match spans.last_mut() {
                Some(last)
                    if last.block == span.block
                        && last.unit == span.unit
                        && last.unit_offset + last.len == span.unit_offset =>
                {
                    last.len += span.len;
                }
                _ => spans.push(span),
            }
        }
    };

    region.for_each_run(view, |buf_elem_off, linear_start, len| {
        // The run is contiguous in the canonical linearization shared by the
        // view and the space; decompose it into storage rows, then into
        // block-bounded sub-segments.
        let mut remaining = len;
        let mut linear = linear_start;
        let mut buf_off = buf_elem_off;
        while remaining > 0 {
            // Decode the storage coordinate of `linear`. Every segment of
            // this row shares its dimensions ≥ 1: their block rank and
            // their offset inside the block are computed once per row.
            let x1 = linear % d1;
            let mut rest = linear / d1;
            let mut upper_rank = 0u64;
            let mut upper_intra = 0u64;
            let mut stride = bb1;
            for (&d, &(b, g)) in space.dims().iter().zip(&grid).skip(1) {
                let x = rest % d;
                rest /= d;
                upper_rank = upper_rank * g + x / b;
                upper_intra += (x % b) * stride;
                stride *= b;
            }
            let row_take = remaining.min(d1 - x1);
            // Split [x1, x1 + row_take) at block boundaries along dim 0.
            let mut seg_x = x1;
            let row_end = x1 + row_take;
            while seg_x < row_end {
                let block_x = seg_x / bb1;
                let seg_end = row_end.min((block_x + 1) * bb1);
                let seg_len = seg_end - seg_x;
                let intra_linear = seg_x % bb1 + upper_intra;
                debug_assert!(intra_linear < bb.volume());

                let seg = Segment {
                    block_offset: intra_linear * elem,
                    buffer_offset: (buf_off + (seg_x - x1)) * elem,
                    len: seg_len * elem,
                };
                let rank = block_x * upper_blocks + upper_rank;
                let ordinal = match per_block.get_mut(&rank) {
                    Some((ordinal, segments)) => {
                        segments.push(seg);
                        *ordinal
                    }
                    None => {
                        let reached = per_block.len();
                        if let (1, Some((_, firsts))) = (reached, per_block.values().next()) {
                            // The second block: from here on the order has
                            // to be spelled out, starting with what the
                            // first block has contributed so far. Requests
                            // are regular, so the list will be about as
                            // much longer as the request is.
                            let share = request_bytes.div_ceil(total_bytes.max(1));
                            let guess = (firsts.len() as u64 * share).min(MAX_RESERVED);
                            spans.reserve(guess as usize);
                            firsts.iter().for_each(|s| append(&mut spans, 0, s));
                        }
                        // Checked once the count is final, below.
                        let ordinal = reached as u32;
                        per_block
                            .entry(rank)
                            .or_insert((ordinal, Vec::new()))
                            .1
                            .push(seg);
                        ordinal
                    }
                };
                if per_block.len() > 1 {
                    append(&mut spans, ordinal, &seg);
                }
                total_bytes += seg_len * elem;
                seg_x = seg_end;
            }
            remaining -= row_take;
            linear += row_take;
            buf_off += row_take;
        }
    })?;

    if u32::try_from(per_block.len()).is_err() {
        return Err(NdsError::PlanTooLarge);
    }
    if spans.capacity() > 2 * spans.len() {
        spans.shrink_to_fit(); // the guess was far off; the plan is kept
    }
    // Blocks take their final index — their position in ascending
    // coordinate order — only now; `index_of` renames the spans' ordinals
    // where the request did not reach its blocks in that order.
    let in_order = per_block
        .values()
        .map(|b| b.0)
        .eq(0..per_block.len() as u32);
    let mut index_of = vec![0u32; if in_order { 0 } else { per_block.len() }];
    let blocks = per_block
        .into_iter()
        .zip(0u32..)
        .map(|((rank, (ordinal, mut segments)), index)| {
            if let Some(slot) = index_of.get_mut(ordinal as usize) {
                *slot = index;
            }
            let mut coord = vec![0u64; grid.len()];
            let mut rest = rank;
            for (c, &(_, g)) in coord.iter_mut().zip(&grid).skip(1).rev() {
                *c = rest % g;
                rest /= g;
            }
            if let Some(c0) = coord.first_mut() {
                *c0 = rest;
            }
            segments.sort_by_key(|s| s.buffer_offset);
            // Merge segments that are contiguous in both the block image and
            // the buffer — when a request's width equals the block width,
            // whole blocks collapse into single copies, which is why NDS
            // assembly is cheap exactly when tiles match building blocks.
            let mut merged: Vec<Segment> = Vec::with_capacity(segments.len());
            for seg in segments {
                if let Some(last) = merged.last_mut() {
                    if last.block_offset + last.len == seg.block_offset
                        && last.buffer_offset + last.len == seg.buffer_offset
                    {
                        last.len += seg.len;
                        continue;
                    }
                }
                merged.push(seg);
            }
            BlockCover {
                coord,
                segments: merged,
            }
        })
        .collect();
    for span in &mut spans {
        if let Some(&index) = index_of.get(span.block as usize) {
            span.block = index;
        }
    }
    Ok(Translation {
        blocks,
        total_bytes,
        spans,
        unit_bytes,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::backend::DeviceSpec;
    use crate::block::BlockDimensionality;
    use crate::element::ElementType;

    fn setup(space_dims: &[u64]) -> (Shape, BlockShape) {
        let space = Shape::new(space_dims.to_vec());
        let bb = BlockShape::for_space(
            &space,
            ElementType::F32,
            DeviceSpec::new(8, 8, 4096),
            BlockDimensionality::Auto,
            1,
        );
        (space, bb)
    }

    #[test]
    fn aligned_tile_covers_exactly_its_blocks() {
        let (space, bb) = setup(&[512, 512]); // 128×128 blocks, 4×4 grid
        let t = translate(&space, &bb, &space, &[1, 1], &[256, 256]).unwrap();
        // A 256×256 tile at block-aligned origin covers a 2×2 block patch.
        assert_eq!(t.block_count(), 4);
        let coords: Vec<_> = t.blocks.iter().map(|b| b.coord.clone()).collect();
        assert!(coords.contains(&vec![2, 2]));
        assert!(coords.contains(&vec![3, 3]));
        assert_eq!(t.total_bytes, 256 * 256 * 4);
    }

    #[test]
    fn row_panel_covers_one_block_row_stripe() {
        let (space, bb) = setup(&[512, 512]);
        // A full-width, 128-tall panel at the top: blocks [0..4, 0].
        let t = translate(&space, &bb, &space, &[0, 0], &[512, 128]).unwrap();
        assert_eq!(t.block_count(), 4);
        assert!(t.blocks.iter().all(|b| b.coord[1] == 0));
    }

    #[test]
    fn column_panel_covers_one_block_column_stripe() {
        let (space, bb) = setup(&[512, 512]);
        let t = translate(&space, &bb, &space, &[0, 0], &[128, 512]).unwrap();
        assert_eq!(t.block_count(), 4);
        assert!(t.blocks.iter().all(|b| b.coord[0] == 0));
    }

    #[test]
    fn segments_tile_buffer_exactly() {
        let (space, bb) = setup(&[512, 512]);
        let t = translate(&space, &bb, &space, &[1, 0], &[200, 100]).unwrap();
        // The union of buffer ranges must be [0, 200*100*4) with no overlap.
        let mut ranges: Vec<(u64, u64)> = t
            .blocks
            .iter()
            .flat_map(|b| b.segments.iter().map(|s| (s.buffer_offset, s.len)))
            .collect();
        ranges.sort_unstable();
        let mut cursor = 0;
        for (off, len) in ranges {
            assert_eq!(off, cursor, "gap or overlap at buffer offset {off}");
            cursor = off + len;
        }
        assert_eq!(cursor, 200 * 100 * 4);
        assert_eq!(t.total_bytes, 200 * 100 * 4);
    }

    #[test]
    fn block_offsets_stay_inside_block_image() {
        let (space, bb) = setup(&[512, 512]);
        let t = translate(&space, &bb, &space, &[1, 1], &[256, 256]).unwrap();
        for block in &t.blocks {
            for s in &block.segments {
                assert!(s.block_offset + s.len <= bb.bytes());
            }
        }
    }

    #[test]
    fn reshaped_view_same_volume_translates() {
        // A (512, 512) space consumed through a (1024, 256) view.
        let (space, bb) = setup(&[512, 512]);
        let view = Shape::new([1024, 256]);
        let t = translate(&space, &bb, &view, &[0, 0], &[1024, 1]).unwrap();
        // One 1024-element view row = two 512-element storage rows = the
        // first block stripe's first two rows.
        assert_eq!(t.total_bytes, 1024 * 4);
        assert!(t.block_count() <= 8);
        assert!(t.blocks.iter().all(|b| b.coord[1] == 0));
    }

    #[test]
    fn volume_mismatch_rejected() {
        let (space, bb) = setup(&[512, 512]);
        let view = Shape::new([512, 256]);
        assert!(matches!(
            translate(&space, &bb, &view, &[0, 0], &[1, 1]),
            Err(NdsError::ViewVolumeMismatch { .. })
        ));
    }

    #[test]
    fn one_dimensional_space() {
        let (space, bb) = setup(&[65536]); // 8192-element linear blocks
        let t = translate(&space, &bb, &space, &[1], &[16384]).unwrap();
        assert_eq!(t.block_count(), 2);
        assert_eq!(t.blocks[0].coord, vec![2]);
        assert_eq!(t.blocks[1].coord, vec![3]);
    }

    #[test]
    fn three_d_space_two_d_blocks() {
        // Fig. 5's structure at 1/64 scale: a (128, 128, 4) space with 2-D
        // blocks; consumer views it as four (128, 128) slabs.
        let space = Shape::new([128, 128, 4]);
        let bb = BlockShape::for_space(
            &space,
            ElementType::F32,
            DeviceSpec::new(8, 8, 4096),
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(bb.dims(), &[128, 128, 1]);
        let t = translate(&space, &bb, &space, &[0, 0, 1], &[128, 128, 1]).unwrap();
        assert_eq!(t.block_count(), 1);
        assert_eq!(t.blocks[0].coord, vec![0, 0, 1]);
        assert_eq!(t.total_bytes, 128 * 128 * 4);
    }

    #[test]
    fn unaligned_region_splits_segments_at_block_boundaries() {
        let (space, bb) = setup(&[512, 512]);
        // A 256-wide run starting at x=64 crosses one block boundary per row.
        let t = translate(&space, &bb, &space, &[0, 0], &[512, 1]).unwrap();
        assert_eq!(t.block_count(), 4);
        assert_eq!(t.segment_count(), 4, "one segment per crossed block");
        assert_eq!(t.min_segment_bytes(), 128 * 4);
    }

    #[test]
    fn edge_blocks_handle_non_multiple_spaces() {
        // A 200×200 space with 128×128 blocks: 2×2 grid, edge blocks partial.
        let space = Shape::new([200, 200]);
        let bb = BlockShape::for_space(
            &space,
            ElementType::F32,
            DeviceSpec::new(8, 8, 4096),
            BlockDimensionality::Auto,
            1,
        );
        let t = translate(&space, &bb, &space, &[0, 0], &[200, 200]).unwrap();
        assert_eq!(t.block_count(), 4);
        assert_eq!(t.total_bytes, 200 * 200 * 4);
    }
}
