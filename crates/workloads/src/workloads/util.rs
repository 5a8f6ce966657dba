//! Shared helpers for the workload implementations.

use nds_core::{ElementType, Shape};
use nds_system::{DatasetId, StorageFrontEnd, SystemError};

use crate::driver::BlockReads;

/// Creates a dataset and writes `bytes` as its full contents.
pub(crate) fn create_full(
    sys: &mut dyn StorageFrontEnd,
    shape: &Shape,
    element: ElementType,
    bytes: &[u8],
) -> Result<DatasetId, SystemError> {
    let id = sys.create_dataset(shape.clone(), element)?;
    let zeros = vec![0u64; shape.ndims()];
    let full: Vec<u64> = shape.dims().to_vec();
    sys.write(id, shape, &zeros, &full, bytes)?;
    Ok(id)
}

/// Creates an empty (all-zero) dataset.
pub(crate) fn create_empty(
    sys: &mut dyn StorageFrontEnd,
    shape: &Shape,
    element: ElementType,
) -> Result<DatasetId, SystemError> {
    sys.create_dataset(shape.clone(), element)
}

/// One single-read block per `t × t` tile of an `n × n` dataset, row of
/// tiles by row of tiles (block `idx` is tile `(idx % (n/t), idx / (n/t))`)
/// — the sweep every whole-matrix tiled workload streams.
pub(crate) fn tile_blocks(id: DatasetId, n: u64, t: u64) -> Vec<BlockReads> {
    let tiles = n / t;
    (0..tiles * tiles)
        .map(|idx| {
            vec![(
                id,
                Shape::new([n, n]),
                vec![idx % tiles, idx / tiles],
                vec![t, t],
            )]
        })
        .collect()
}

/// Cuts the `t × t` tile at tile coordinate `(tx, ty)` out of an `n`-wide
/// row-major matrix (x fastest) into `tile`, a buffer the caller reuses
/// from block to block (cleared first).
pub(crate) fn tile_into<T: Copy>(
    m: &[T],
    n: usize,
    t: usize,
    tx: usize,
    ty: usize,
    tile: &mut Vec<T>,
) {
    tile.clear();
    for y in 0..t {
        let row = (ty * t + y) * n + tx * t;
        tile.extend_from_slice(&m[row..row + t]);
    }
}

/// Writes tile `(tx, ty)` back into an `n × n` row-major matrix.
pub(crate) fn place_tile(m: &mut [f32], n: usize, t: usize, tx: usize, ty: usize, tile: &[f32]) {
    for y in 0..t {
        let row = (ty * t + y) * n + tx * t;
        m[row..row + t].copy_from_slice(&tile[y * t..(y + 1) * t]);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tile_round_trip() {
        let n = 8;
        let t = 4;
        let m: Vec<f32> = (0..n * n).map(|i| i as f32).collect();
        let mut tile = vec![-1.0; 3]; // stale contents are replaced
        tile_into(&m, n, t, 1, 1, &mut tile);
        assert_eq!(tile.len(), t * t);
        assert_eq!(tile[0], (4 * n + 4) as f32);
        let mut m2 = vec![0.0; n * n];
        place_tile(&mut m2, n, t, 1, 1, &tile);
        assert_eq!(m2[4 * n + 4], tile[0]);
        let mut back = Vec::new();
        tile_into(&m2, n, t, 1, 1, &mut back);
        assert_eq!(back, tile);
    }
}
