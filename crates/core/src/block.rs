//! Building-block sizing — equations (1)–(4) of §4.1.
//!
//! A building block is a fixed-size N-D tile whose basic access units are
//! spread over all parallel channels (and over banks, for 3-D blocks), so
//! that fetching *any one whole block* uses the device's full internal
//! bandwidth. The STL sizes blocks from the device spec:
//!
//! * **Eq. (1)**: `BB_Size_min = channels × unit_bytes` — one unit per
//!   channel is the smallest block that touches every channel.
//! * **Eq. (2)**: for a 2-D block of elements of size `N`, each dimension
//!   stores `2^⌈log₂(BB_Size_min / N) / 2⌉` elements (a square, power-of-two
//!   tile no smaller than `BB_Size_min`).
//! * **Eq. (3)**: `3D_BB_Size_min = BB_Size_min × banks` — a 3-D block also
//!   spans the bank dimension.
//! * **Eq. (4)**: each dimension of a 3-D block stores
//!   `2^⌈log₂(3D_BB_Size_min / N) / 3⌉` elements.
//!
//! Blocks may be sized at a *multiple* of the minimum ("the building block
//! will be defined as a multiple of 32 KB", §4.1) — the paper's own
//! microbenchmarks use 256×256 f64 blocks on a device whose minimum square
//! is 128×128, i.e. a 4× multiple, so [`BlockShape`] accepts a multiplier.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::backend::DeviceSpec;
use crate::element::ElementType;
use crate::shape::Shape;

/// Which block dimensionality the STL should use for a space.
///
/// The paper's default is 2-D whenever the space has at least two dimensions
/// (§4.1); 3-D blocks additionally spread over banks and suit 3-D tensor
/// spaces. NDS supports only 1-D/2-D/3-D blocks because current devices
/// expose exactly two levels of parallelism.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub enum BlockDimensionality {
    /// Square blocks per Eq. (2) — the paper's default. A 1-D space gets
    /// linear blocks, as with [`OneD`](Self::OneD).
    #[default]
    Auto,
    /// Linear blocks of `BB_Size_min / N` elements.
    OneD,
    /// Cubic blocks per Eq. (4); requires a space of rank ≥ 3.
    ThreeD,
}

/// The resolved building-block geometry for one space.
///
/// # Example
///
/// ```
/// use nds_core::{BlockDimensionality, BlockShape, DeviceSpec, ElementType, Shape};
///
/// // The paper's §4.1 example: 8 channels × 4 KB pages ⇒ BB_Size_min = 32 KB;
/// // 4-byte elements in a 2-D space ⇒ 128×128-element, 64 KB blocks.
/// let spec = DeviceSpec::new(8, 8, 4096);
/// let bb = BlockShape::for_space(
///     &Shape::new([1024, 1024]),
///     ElementType::F32,
///     spec,
///     BlockDimensionality::Auto,
///     1,
/// );
/// assert_eq!(bb.dims(), &[128, 128]);
/// assert_eq!(bb.bytes(), 64 * 1024);
/// assert_eq!(bb.unit_count(), 16); // 2 pages from each of the 8 channels
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct BlockShape {
    dims: Vec<u64>,
    element_bytes: u32,
    unit_bytes: u32,
}

fn pow2_at_least(x: u64) -> u64 {
    x.next_power_of_two()
}

/// `2^⌈log₂(volume)/k⌉` — the per-dimension side of a k-D power-of-two tile
/// holding at least `volume` elements.
fn side_for(volume: u64, k: u32) -> u64 {
    let v = pow2_at_least(volume.max(1));
    let bits = v.trailing_zeros(); // v is a power of two
    let per_dim = bits.div_ceil(k);
    1u64 << per_dim
}

impl BlockShape {
    /// Computes the block geometry for a space per §4.1.
    ///
    /// `multiplier` scales the minimum block volume (1 = the equations'
    /// minimum; the paper's Fig. 9 prototype uses 4). It must be a power of
    /// two so block sides stay powers of two. A `dimensionality` above the
    /// space's rank tiles the dimensions the space has: the block keeps its
    /// volume (a [`BlockDimensionality::ThreeD`] block still spans the
    /// banks) and `bbᵢ = 1` beyond its rank.
    ///
    /// # Panics
    ///
    /// Panics if `multiplier` is zero or not a power of two.
    pub fn for_space(
        space: &Shape,
        element: ElementType,
        spec: DeviceSpec,
        dimensionality: BlockDimensionality,
        multiplier: u64,
    ) -> Self {
        assert!(
            multiplier.is_power_of_two(),
            "block multiplier must be a power of two, got {multiplier}"
        );
        let (min_bytes, rank) = match dimensionality {
            BlockDimensionality::Auto => (spec.min_block_bytes(), 2),
            BlockDimensionality::OneD => (spec.min_block_bytes(), 1),
            BlockDimensionality::ThreeD => (spec.min_block_bytes_3d(), 3),
        };
        let rank = rank.min(space.ndims());
        let min_elems = (min_bytes * multiplier).div_ceil(element.size() as u64);
        let side = side_for(min_elems, rank as u32);
        BlockShape {
            dims: (0..space.ndims())
                .map(|dim| if dim < rank { side } else { 1 })
                .collect(),
            element_bytes: element.size() as u32,
            unit_bytes: spec.unit_bytes,
        }
    }

    /// Builds a block shape with explicit per-dimension extents, bypassing
    /// the device-derived sizing — used by layouts that tile by an
    /// application-chosen granularity (e.g. the §7.2 oracle configuration,
    /// which stores data pre-tiled in the kernel's request shape).
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any extent is zero, or sizes are zero.
    pub fn custom(dims: impl Into<Vec<u64>>, element_bytes: u32, unit_bytes: u32) -> Self {
        let dims = dims.into();
        assert!(
            !dims.is_empty() && dims.iter().all(|&d| d > 0),
            "block extents must be non-empty and non-zero"
        );
        assert!(
            element_bytes > 0 && unit_bytes > 0,
            "sizes must be non-zero"
        );
        BlockShape {
            dims,
            element_bytes,
            unit_bytes,
        }
    }

    /// Per-dimension block extents (same arity as the space, fastest first;
    /// `bbᵢ = 1` beyond the block's own rank, per §4.1).
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Elements per block.
    pub fn volume(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Bytes per block.
    pub fn bytes(&self) -> u64 {
        self.volume() * self.element_bytes as u64
    }

    /// Basic access units per block.
    pub fn unit_count(&self) -> usize {
        self.bytes().div_ceil(self.unit_bytes as u64) as usize
    }

    /// Element size in bytes.
    pub fn element_bytes(&self) -> u32 {
        self.element_bytes
    }

    /// Unit size in bytes.
    pub fn unit_bytes(&self) -> u32 {
        self.unit_bytes
    }

    /// The grid of blocks tiling `space`: `⌈dᵢ / bbᵢ⌉` per dimension.
    /// Edge blocks may be partially filled.
    pub fn grid_for(&self, space: &Shape) -> Shape {
        Shape::new(
            space
                .dims()
                .iter()
                .zip(&self.dims)
                .map(|(&d, &bb)| d.div_ceil(bb))
                .collect::<Vec<_>>(),
        )
    }
}

impl fmt::Display for BlockShape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "bb(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ", {} units)", self.unit_count())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn eq1_minimum_block_bytes() {
        // SSD with 4 KB pages and 8 channels ⇒ 32 KB minimum (§4.1 example).
        let spec = DeviceSpec::new(8, 8, 4096);
        assert_eq!(spec.min_block_bytes(), 32 * 1024);
    }

    #[test]
    fn eq2_paper_example_128x128_f32() {
        // §4.1: BB_Size_min = 32 KB, 4-byte elements, 2-D space ⇒ 64 KB
        // blocks of 128×128 elements, 2 pages per channel.
        let spec = DeviceSpec::new(8, 8, 4096);
        let bb = BlockShape::for_space(
            &Shape::new([4096, 4096]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(bb.dims(), &[128, 128]);
        assert_eq!(bb.bytes(), 64 * 1024);
        assert_eq!(bb.unit_count(), 16);
    }

    #[test]
    fn fig5_example_8ch_8kb_pages() {
        // Fig. 5: 8 KB pages, 8 channels, f32 ⇒ (128, 128) blocks of 8 pages.
        let spec = DeviceSpec::new(8, 8, 8192);
        let bb = BlockShape::for_space(
            &Shape::new([8192, 8192, 4]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(bb.dims(), &[128, 128, 1]);
        assert_eq!(bb.unit_count(), 8);
    }

    #[test]
    fn fig9_prototype_256x256_f64_with_multiplier() {
        // §7.1: 32 channels × 4 KB pages, f64, block multiplier 4 ⇒ 256×256.
        let spec = DeviceSpec::new(32, 8, 4096);
        let bb = BlockShape::for_space(
            &Shape::new([32768, 32768]),
            ElementType::F64,
            spec,
            BlockDimensionality::Auto,
            4,
        );
        assert_eq!(bb.dims(), &[256, 256]);
        assert_eq!(bb.bytes(), 512 * 1024);
        assert_eq!(bb.unit_count(), 128); // 4 pages per channel
    }

    #[test]
    fn one_d_block_is_linear() {
        let spec = DeviceSpec::new(8, 2, 4096);
        let bb = BlockShape::for_space(
            &Shape::new([1 << 20]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(bb.dims(), &[8192]); // 32 KB / 4 B
        assert_eq!(bb.unit_count(), 8);
    }

    #[test]
    fn three_d_block_uses_banks() {
        // Eq. (3)/(4): 8 ch × 4 KB × 8 banks = 256 KB minimum; f32 ⇒ 64 K
        // elements ⇒ 2^⌈16/3⌉ = 64 per side.
        let spec = DeviceSpec::new(8, 8, 4096);
        let bb = BlockShape::for_space(
            &Shape::new([512, 512, 512]),
            ElementType::F32,
            spec,
            BlockDimensionality::ThreeD,
            1,
        );
        assert_eq!(bb.dims(), &[64, 64, 64]);
        assert!(bb.bytes() >= spec.min_block_bytes_3d());
    }

    #[test]
    fn block_at_least_minimum_for_odd_elements() {
        // u8 elements: 32 K elements minimum, side 2^⌈15/2⌉ = 256.
        let spec = DeviceSpec::new(8, 8, 4096);
        let bb = BlockShape::for_space(
            &Shape::new([4096, 4096]),
            ElementType::U8,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(bb.dims(), &[256, 256]);
        assert!(bb.bytes() >= spec.min_block_bytes());
    }

    #[test]
    fn auto_picks_by_rank() {
        let spec = DeviceSpec::new(4, 2, 1024);
        let one = BlockShape::for_space(
            &Shape::new([4096]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(one.dims().len(), 1);
        let two = BlockShape::for_space(
            &Shape::new([256, 256, 8]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        assert_eq!(two.dims()[2], 1, "auto uses 2-D blocks for 3-D spaces");
    }

    #[test]
    fn grid_rounds_up() {
        let spec = DeviceSpec::new(8, 8, 4096);
        let bb = BlockShape::for_space(
            &Shape::new([200, 300]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            1,
        );
        // 128×128 blocks tile a 200×300 space as 2×3.
        let grid = bb.grid_for(&Shape::new([200, 300]));
        assert_eq!(grid.dims(), &[2, 3]);
    }

    #[test]
    #[should_panic(expected = "power of two")]
    fn non_pow2_multiplier_rejected() {
        let spec = DeviceSpec::new(8, 8, 4096);
        let _ = BlockShape::for_space(
            &Shape::new([64, 64]),
            ElementType::F32,
            spec,
            BlockDimensionality::Auto,
            3,
        );
    }

    #[test]
    fn a_block_of_higher_rank_than_the_space_tiles_the_dimensions_it_has() {
        let spec = DeviceSpec::new(8, 8, 4096);
        let for_rank = |dims: Vec<u64>, dimensionality| {
            BlockShape::for_space(&Shape::new(dims), ElementType::F32, spec, dimensionality, 1)
        };
        // Eq. (3)'s volume (8 banks × 32 KiB = 64 Ki elements), in the two
        // dimensions a matrix has.
        let flat = for_rank(vec![4096, 4096], BlockDimensionality::ThreeD);
        assert_eq!(flat.dims(), &[256, 256]);
        assert_eq!(
            for_rank(vec![1 << 20], BlockDimensionality::Auto),
            for_rank(vec![1 << 20], BlockDimensionality::OneD)
        );
    }
}
