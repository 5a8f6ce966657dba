//! Shapes, coordinates, regions, and the linearization they share.
//!
//! # Dimension-order convention
//!
//! Throughout this crate a shape `(d₁, d₂, …, dₙ)` lists the
//! **lowest-order (fastest-varying) dimension first**, matching the paper's
//! notation: the leaf level of the STL B-tree corresponds to `d₁` and the
//! root to `dₙ` (Fig. 6). The canonical linearization is therefore
//!
//! ```text
//! linear(x₁, …, xₙ) = x₁ + d₁·(x₂ + d₂·(x₃ + … ))
//! ```
//!
//! This single linearization is what lets a consumer view a space through
//! *any* dimensionality of equal volume (§3): both producer and consumer
//! shapes are decodings of the same linear element sequence.

use core::fmt;

use serde::{Deserialize, Serialize};

use crate::element::ElementType;
use crate::error::NdsError;

/// The dimensionality of a space or view: per-dimension sizes, fastest
/// dimension first.
///
/// # Example
///
/// ```
/// use nds_core::Shape;
///
/// // A 16-wide, 8-tall matrix (x fastest).
/// let s = Shape::new([16, 8]);
/// assert_eq!(s.volume(), 128);
/// assert_eq!(s.linear_index(&[3, 2]), Ok(3 + 2 * 16));
/// assert_eq!(s.coord_at(35), Some(vec![3, 2]));
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash, Serialize, Deserialize)]
pub struct Shape {
    dims: Vec<u64>,
}

impl Shape {
    /// Creates a shape from per-dimension sizes, fastest first.
    ///
    /// # Panics
    ///
    /// Panics if `dims` is empty, any dimension is zero or the volume
    /// overflows `u64` — use [`Shape::try_new`] for fallible construction.
    #[expect(
        clippy::expect_used,
        reason = "constructor contract for literal shapes; try_new is the fallible path"
    )]
    pub fn new(dims: impl Into<Vec<u64>>) -> Self {
        Shape::try_new(dims)
            .expect("shape dimensions must be non-empty, non-zero and of u64 volume")
    }

    /// Fallible constructor. Every `Shape` it lets through has a volume —
    /// and so every in-bounds linear index and partition volume — that fits
    /// in a `u64`.
    ///
    /// # Errors
    ///
    /// * [`NdsError::EmptyShape`] if `dims` is empty or contains a zero.
    /// * [`NdsError::ShapeTooLarge`] if the volume overflows `u64`.
    pub fn try_new(dims: impl Into<Vec<u64>>) -> Result<Self, NdsError> {
        let dims = dims.into();
        if dims.is_empty() || dims.contains(&0) {
            return Err(NdsError::EmptyShape);
        }
        dims.iter()
            .try_fold(1u64, |volume, &d| volume.checked_mul(d))
            .ok_or(NdsError::ShapeTooLarge)?;
        Ok(Shape { dims })
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.dims.len()
    }

    /// Per-dimension sizes, fastest first.
    pub fn dims(&self) -> &[u64] {
        &self.dims
    }

    /// Size of dimension `i` (0 = fastest); 1 for every dimension past the
    /// last, which is what a shape of lower rank is along it.
    pub fn dim(&self, i: usize) -> u64 {
        self.dims.get(i).copied().unwrap_or(1)
    }

    /// Total number of elements.
    pub fn volume(&self) -> u64 {
        self.dims.iter().product()
    }

    /// Bytes of a dense array of this shape's `element`s, or `None` when
    /// that does not fit in 64 bits.
    pub fn checked_bytes(&self, element: ElementType) -> Option<u64> {
        self.volume().checked_mul(element.size() as u64)
    }

    /// The linear index of `coord` under the canonical linearization.
    ///
    /// # Errors
    ///
    /// [`NdsError::ArityMismatch`] if `coord` has the wrong arity,
    /// [`NdsError::OutOfBounds`] if it lies outside the shape.
    pub fn linear_index(&self, coord: &[u64]) -> Result<u64, NdsError> {
        self.check_coord(coord)?;
        Ok(coord
            .iter()
            .zip(&self.dims)
            .rev()
            .fold(0, |index, (&c, &d)| index * d + c))
    }

    /// Checks that `coord` names an element (or block) of this shape.
    ///
    /// # Errors
    ///
    /// As [`linear_index`](Self::linear_index).
    pub(crate) fn check_coord(&self, coord: &[u64]) -> Result<(), NdsError> {
        if coord.len() != self.dims.len() {
            return Err(NdsError::ArityMismatch {
                view: self.dims.len(),
                request: coord.len(),
            });
        }
        for (dim, (&c, &size)) in coord.iter().zip(&self.dims).enumerate() {
            if c >= size {
                let end = c.saturating_add(1);
                return Err(NdsError::OutOfBounds { dim, end, size });
            }
        }
        Ok(())
    }

    /// The coordinate of linear index `index`, or `None` if
    /// `index >= volume()`.
    pub fn coord_at(&self, index: u64) -> Option<Vec<u64>> {
        if index >= self.volume() {
            return None;
        }
        let mut rest = index;
        let mut coord = Vec::with_capacity(self.dims.len());
        for &d in &self.dims {
            coord.push(rest % d);
            rest /= d;
        }
        Some(coord)
    }

    /// The whole shape as a region at the origin.
    pub fn full_region(&self) -> Region {
        Region {
            origin: vec![0; self.ndims()],
            extent: self.dims.clone(),
        }
    }
}

impl fmt::Display for Shape {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "(")?;
        for (i, d) in self.dims.iter().enumerate() {
            if i > 0 {
                write!(f, "×")?;
            }
            write!(f, "{d}")?;
        }
        write!(f, ")")
    }
}

/// An axis-aligned box inside a shape: per-dimension origin and extent,
/// fastest dimension first.
///
/// A region is the element-space form of the paper's
/// *(coordinate, sub-dimensionality)* request: coordinate `(x₁…xₘ)` with
/// sub-dimensionality `(f₁…fₘ)` denotes the region with origin `xᵢ·fᵢ` and
/// extent `fᵢ`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Serialize, Deserialize)]
pub struct Region {
    /// Per-dimension first element.
    pub origin: Vec<u64>,
    /// Per-dimension element count.
    pub extent: Vec<u64>,
}

impl Region {
    /// Builds the region for a `(coordinate, sub-dimensionality)` request in
    /// `view`, validating arity and bounds.
    ///
    /// # Errors
    ///
    /// * [`NdsError::ArityMismatch`] if `coord`/`sub_dims` don't match the
    ///   view's dimensionality.
    /// * [`NdsError::EmptyShape`] if any `sub_dims` entry is zero.
    /// * [`NdsError::OutOfBounds`] if the partition exceeds the view.
    pub fn from_request(view: &Shape, coord: &[u64], sub_dims: &[u64]) -> Result<Self, NdsError> {
        check_request(view, coord, sub_dims)?;
        Ok(Region {
            origin: coord.iter().zip(sub_dims).map(|(c, f)| c * f).collect(),
            extent: sub_dims.to_vec(),
        })
    }

    /// The element volume of the region a request denotes, after the same
    /// validation as [`from_request`](Self::from_request) but without
    /// building the region.
    ///
    /// # Errors
    ///
    /// Same as [`from_request`](Self::from_request).
    pub fn request_volume(view: &Shape, coord: &[u64], sub_dims: &[u64]) -> Result<u64, NdsError> {
        check_request(view, coord, sub_dims)?;
        Ok(sub_dims.iter().product())
    }

    /// [`from_request`](Self::from_request) then
    /// [`for_each_run`](Self::for_each_run) in `view`, without materializing
    /// the region (no allocation). Returns the region's element volume.
    ///
    /// # Errors
    ///
    /// Same as [`from_request`](Self::from_request).
    pub fn for_each_request_run(
        view: &Shape,
        coord: &[u64],
        sub_dims: &[u64],
        f: impl FnMut(u64, u64, u64),
    ) -> Result<u64, NdsError> {
        let volume = Self::request_volume(view, coord, sub_dims)?;
        let mut origin = 0;
        let mut stride = 1;
        for ((c, f), d) in coord.iter().zip(sub_dims).zip(view.dims()) {
            origin += c * f * stride;
            stride *= d;
        }
        runs(view, origin, sub_dims, f);
        Ok(volume)
    }

    /// Number of dimensions.
    pub fn ndims(&self) -> usize {
        self.origin.len()
    }

    /// Total elements covered.
    pub fn volume(&self) -> u64 {
        self.extent.iter().product()
    }

    /// Calls `f(region_row_offset, linear_start, len)` once per contiguous
    /// run of the region inside `shape`, in row-major order of the region.
    ///
    /// Every run lies along dimension 0 and has `extent[0]` elements;
    /// `region_row_offset` counts elements already emitted (so a caller can
    /// index into a dense buffer holding the region), and `linear_start` is
    /// the run's first element in `shape`'s canonical linearization.
    ///
    /// # Errors
    ///
    /// [`NdsError::ArityMismatch`], [`NdsError::EmptyShape`] or
    /// [`NdsError::OutOfBounds`] if the region is not a non-empty box inside
    /// `shape`; `f` is not called then.
    pub fn for_each_run(
        &self,
        shape: &Shape,
        f: impl FnMut(u64, u64, u64),
    ) -> Result<(), NdsError> {
        let origin = shape.linear_index(&self.origin)?;
        if self.extent.len() != shape.ndims() {
            return Err(NdsError::ArityMismatch {
                view: shape.ndims(),
                request: self.extent.len(),
            });
        }
        if self.extent.contains(&0) {
            return Err(NdsError::EmptyShape);
        }
        for (dim, ((&o, &e), &size)) in
            (self.origin.iter().zip(&self.extent).zip(shape.dims())).enumerate()
        {
            let end = o.saturating_add(e);
            if end > size {
                return Err(NdsError::OutOfBounds { dim, end, size });
            }
        }
        runs(shape, origin, &self.extent, f);
        Ok(())
    }
}

/// Validates a `(coordinate, sub-dimensionality)` request against `view`:
/// arity, non-zero extents, and bounds (see [`Region::from_request`]).
pub(crate) fn check_request(view: &Shape, coord: &[u64], sub_dims: &[u64]) -> Result<(), NdsError> {
    if coord.len() != view.ndims() || sub_dims.len() != view.ndims() {
        return Err(NdsError::ArityMismatch {
            view: view.ndims(),
            request: if coord.len() != view.ndims() {
                coord.len()
            } else {
                sub_dims.len()
            },
        });
    }
    if sub_dims.contains(&0) {
        return Err(NdsError::EmptyShape);
    }
    for (dim, ((&c, &f), &size)) in coord.iter().zip(sub_dims).zip(view.dims()).enumerate() {
        let start = c.checked_mul(f).ok_or(NdsError::OutOfBounds {
            dim,
            end: u64::MAX,
            size,
        })?;
        let end = start.saturating_add(f);
        if end > size {
            return Err(NdsError::OutOfBounds { dim, end, size });
        }
    }
    Ok(())
}

/// The run iteration behind [`Region::for_each_run`]: the box of `extent`
/// whose first element has linear index `origin` in `shape`. Row `r` of the
/// box is `r` written in the mixed radix `extent[1..]`; each digit moves the
/// run start by its dimension's stride in `shape`.
fn runs(shape: &Shape, origin: u64, extent: &[u64], mut f: impl FnMut(u64, u64, u64)) {
    let Some((&run_len, outer)) = extent.split_first() else {
        return;
    };
    let rows: u64 = outer.iter().product::<u64>().max(1);
    for row in 0..rows {
        let mut rest = row;
        let mut stride = 1;
        let mut linear_start = origin;
        for (&e, &d) in outer.iter().zip(shape.dims()) {
            stride *= d;
            linear_start += (rest % e) * stride;
            rest /= e;
        }
        f(row * run_len, linear_start, run_len);
    }
}

impl fmt::Display for Region {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[")?;
        for (i, (origin, extent)) in self.origin.iter().zip(&self.extent).enumerate() {
            if i > 0 {
                write!(f, ", ")?;
            }
            write!(f, "{origin}..{}", origin.saturating_add(*extent))?;
        }
        write!(f, "]")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn linear_index_round_trips() {
        let s = Shape::new([5, 7, 3]);
        for idx in 0..s.volume() {
            let c = s.coord_at(idx).unwrap();
            assert_eq!(s.linear_index(&c).unwrap(), idx);
        }
    }

    #[test]
    fn fastest_dimension_is_first() {
        let s = Shape::new([10, 4]);
        assert_eq!(s.linear_index(&[1, 0]).unwrap(), 1);
        assert_eq!(s.linear_index(&[0, 1]).unwrap(), 10);
    }

    #[test]
    fn try_new_rejects_bad_shapes() {
        assert_eq!(Shape::try_new(Vec::<u64>::new()), Err(NdsError::EmptyShape));
        assert_eq!(Shape::try_new([4, 0]), Err(NdsError::EmptyShape));
        assert!(Shape::try_new([1]).is_ok());
    }

    #[test]
    fn display_format() {
        assert_eq!(Shape::new([128, 128, 4]).to_string(), "(128×128×4)");
    }

    #[test]
    fn region_from_request_validates() {
        let v = Shape::new([16, 16]);
        let r = Region::from_request(&v, &[1, 0], &[8, 8]).unwrap();
        assert_eq!(r.origin, vec![8, 0]);
        assert_eq!(r.extent, vec![8, 8]);
        assert_eq!(r.volume(), 64);

        assert!(matches!(
            Region::from_request(&v, &[2, 0], &[8, 8]),
            Err(NdsError::OutOfBounds {
                dim: 0,
                end: 24,
                size: 16
            })
        ));
        assert!(matches!(
            Region::from_request(&v, &[0], &[8]),
            Err(NdsError::ArityMismatch { .. })
        ));
        assert!(matches!(
            Region::from_request(&v, &[0, 0], &[0, 8]),
            Err(NdsError::EmptyShape)
        ));
    }

    #[test]
    fn runs_cover_region_in_order() {
        let shape = Shape::new([8, 4]);
        let region = Region {
            origin: vec![2, 1],
            extent: vec![3, 2],
        };
        let mut runs = Vec::new();
        region
            .for_each_run(&shape, |off, start, len| runs.push((off, start, len)))
            .unwrap();
        // Two rows (y=1, y=2), each a 3-element run starting at x=2.
        assert_eq!(runs, vec![(0, 8 + 2, 3), (3, 2 * 8 + 2, 3)]);
    }

    #[test]
    fn runs_cover_3d_region() {
        let shape = Shape::new([4, 4, 4]);
        let region = Region {
            origin: vec![0, 0, 0],
            extent: vec![4, 2, 2],
        };
        let mut total = 0;
        let mut seen = std::collections::HashSet::new();
        region
            .for_each_run(&shape, |_, start, len| {
                total += len;
                for e in start..start + len {
                    assert!(seen.insert(e), "element {e} covered twice");
                }
            })
            .unwrap();
        assert_eq!(total, region.volume());
    }

    #[test]
    fn request_runs_match_the_materialized_region() {
        let view = Shape::new([12, 6, 4]);
        let (coord, sub) = ([1u64, 2, 1], [4u64, 2, 2]);
        let mut direct = Vec::new();
        let volume =
            Region::for_each_request_run(&view, &coord, &sub, |o, s, l| direct.push((o, s, l)))
                .unwrap();
        let region = Region::from_request(&view, &coord, &sub).unwrap();
        let mut via_region = Vec::new();
        region
            .for_each_run(&view, |o, s, l| via_region.push((o, s, l)))
            .unwrap();
        assert_eq!(direct, via_region);
        assert_eq!(volume, region.volume());
        assert_eq!(direct.len(), 4, "2 × 2 outer rows");
        assert_eq!(direct[0], (0, view.linear_index(&[4, 4, 2]).unwrap(), 4));
        assert!(matches!(
            Region::for_each_request_run(&view, &[3, 0, 0], &sub, |_, _, _| ()),
            Err(NdsError::OutOfBounds { dim: 0, .. })
        ));
    }

    #[test]
    fn one_dimensional_region_is_one_run() {
        let shape = Shape::new([64]);
        let region = Region {
            origin: vec![16],
            extent: vec![32],
        };
        let mut runs = Vec::new();
        region
            .for_each_run(&shape, |off, start, len| runs.push((off, start, len)))
            .unwrap();
        assert_eq!(runs, vec![(0, 16, 32)]);
    }

    #[test]
    fn full_region_covers_everything() {
        let s = Shape::new([6, 5]);
        let r = s.full_region();
        assert_eq!(r.volume(), s.volume());
        let mut covered = 0;
        r.for_each_run(&s, |_, _, len| covered += len).unwrap();
        assert_eq!(covered, 30);
    }
}
