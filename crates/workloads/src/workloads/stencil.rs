//! Stencil workloads: Hotspot and Conv2D (Table 1).
//!
//! Both stream square tiles — the 2-D kernel sub-dimensionality of Table 1 —
//! and Hotspot additionally fetches one-row/one-column *halo strips* from
//! the neighboring tiles each sweep, exercising NDS's ability to serve thin
//! unaligned slices of the same stored dataset.

use nds_core::{ElementType, Shape};
use nds_interconnect::LinkConfig;
use nds_system::{DatasetId, StorageFrontEnd, SystemError};

use super::util::{create_empty, create_full, place_tile, tile_blocks, tile_into};
use super::Workload;
use crate::data;
use crate::driver::{stream_phase, BlockReads, WorkloadRun};
use crate::kernels;
use crate::params::WorkloadParams;

/// Box-filter radius for Conv2D (the CUDA separable-convolution sample's
/// default neighborhood scale).
const CONV_RADIUS: usize = 4;

/// The Hotspot thermal simulation: Jacobi sweeps over tiles with halos.
#[derive(Debug, Clone)]
pub struct Hotspot {
    params: WorkloadParams,
}

impl Hotspot {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Hotspot { params }
    }

    fn initial_temp(&self) -> Vec<f32> {
        data::matrix_f32(self.params.n, self.params.n, self.params.seed)
            .iter()
            .map(|v| 40.0 + 10.0 * v)
            .collect()
    }

    fn power(&self) -> Vec<f32> {
        data::matrix_f32(self.params.n, self.params.n, self.params.seed ^ 0x0F0F)
            .iter()
            .map(|v| v.abs())
            .collect()
    }

    fn sweep(&self, temp: &[f32], power: &[f32]) -> Vec<f32> {
        let n = self.params.n as usize;
        let t = self.params.tile as usize;
        let tiles = n / t;
        let mut next = vec![0.0f32; n * n];
        let (mut tile, mut ptile) = (Vec::new(), Vec::new());
        let [mut north, mut south, mut west, mut east] = [const { Vec::new() }; 4];
        let mut out = vec![0.0f32; t * t];
        for ty in 0..tiles {
            for tx in 0..tiles {
                tile_into(temp, n, t, tx, ty, &mut tile);
                tile_into(power, n, t, tx, ty, &mut ptile);
                halo_row(temp, n, t, tx, ty as isize - 1, t - 1, &mut north);
                halo_row(temp, n, t, tx, ty as isize + 1, 0, &mut south);
                halo_col(temp, n, t, tx as isize - 1, ty, t - 1, &mut west);
                halo_col(temp, n, t, tx as isize + 1, ty, 0, &mut east);
                kernels::hotspot_tile(t, &tile, &ptile, &north, &south, &west, &east, &mut out);
                place_tile(&mut next, n, t, tx, ty, &out);
            }
        }
        next
    }

    fn compute(&self) -> Vec<f32> {
        let mut temp = self.initial_temp();
        let power = self.power();
        for _ in 0..self.params.iterations {
            temp = self.sweep(&temp, &power);
        }
        temp
    }
}

/// Row `row_in_tile` of tile `(tx, ty)` into `halo` — left empty when the
/// tile lies outside the grid (the kernel then replicates its own edge).
fn halo_row(
    m: &[f32],
    n: usize,
    t: usize,
    tx: usize,
    ty: isize,
    row_in_tile: usize,
    halo: &mut Vec<f32>,
) {
    halo.clear();
    if ty < 0 || ty as usize >= n / t {
        return;
    }
    let y = ty as usize * t + row_in_tile;
    halo.extend_from_slice(&m[y * n + tx * t..y * n + tx * t + t]);
}

/// Column `col_in_tile` of tile `(tx, ty)` into `halo`, as [`halo_row`].
fn halo_col(
    m: &[f32],
    n: usize,
    t: usize,
    tx: isize,
    ty: usize,
    col_in_tile: usize,
    halo: &mut Vec<f32>,
) {
    halo.clear();
    if tx < 0 || tx as usize >= n / t {
        return;
    }
    let x = tx as usize * t + col_in_tile;
    halo.extend((0..t).map(|dy| m[(ty * t + dy) * n + x]));
}

impl Workload for Hotspot {
    fn name(&self) -> &'static str {
        "Hotspot"
    }

    fn category(&self) -> &'static str {
        "Physics Simulation"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let n = self.params.n;
        let t = self.params.tile;
        let tiles = n / t;
        let shape = Shape::new([n, n]);
        let power = self.power();
        let power_id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&power))?;
        let temp0 = self.initial_temp();
        let mut ping = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&temp0))?;
        let mut pong: DatasetId = create_empty(sys, &shape, ElementType::F32)?;

        let ts = t as usize;
        let engine = self.params.cuda_engine();
        let mut phases = Vec::new();
        // Decode scratch and one sweep's output tiles (back to back in
        // block order), all reused from block to block and sweep to sweep.
        let (mut tile, mut ptile) = (Vec::new(), Vec::new());
        let mut halos = [const { Vec::new() }; 4];
        let mut out_tiles = vec![0.0f32; (n * n) as usize];
        for _ in 0..self.params.iterations {
            // Build the per-tile read lists: tile + power + up to 4 halos.
            let mut blocks: Vec<BlockReads> = Vec::with_capacity((tiles * tiles) as usize);
            let mut halo_kinds: Vec<[bool; 4]> = Vec::with_capacity(blocks.capacity());
            for ty in 0..tiles {
                for tx in 0..tiles {
                    let mut reads: BlockReads = vec![
                        (ping, shape.clone(), vec![tx, ty], vec![t, t]),
                        (power_id, shape.clone(), vec![tx, ty], vec![t, t]),
                    ];
                    let mut kinds = [false; 4];
                    if ty > 0 {
                        reads.push((ping, shape.clone(), vec![tx, ty * t - 1], vec![t, 1]));
                        kinds[0] = true;
                    }
                    if ty + 1 < tiles {
                        reads.push((ping, shape.clone(), vec![tx, (ty + 1) * t], vec![t, 1]));
                        kinds[1] = true;
                    }
                    if tx > 0 {
                        reads.push((ping, shape.clone(), vec![tx * t - 1, ty], vec![1, t]));
                        kinds[2] = true;
                    }
                    if tx + 1 < tiles {
                        reads.push((ping, shape.clone(), vec![(tx + 1) * t, ty], vec![1, t]));
                        kinds[3] = true;
                    }
                    blocks.push(reads);
                    halo_kinds.push(kinds);
                }
            }

            let phase = stream_phase(
                sys,
                &blocks,
                &engine,
                t,
                Some(LinkConfig::pcie3_x16()),
                |idx, bufs| {
                    data::f32_from_bytes_into(&bufs[0], &mut tile);
                    data::f32_from_bytes_into(&bufs[1], &mut ptile);
                    // Present halos follow in north, south, west, east order.
                    let mut present = bufs[2..].iter().peekable();
                    for (halo, &kind) in halos.iter_mut().zip(&halo_kinds[idx]) {
                        match present.next_if(|_| kind) {
                            Some(buf) => data::f32_from_bytes_into(buf, halo),
                            None => halo.clear(),
                        }
                    }
                    let [north, south, west, east] = &halos;
                    let out = &mut out_tiles[idx * ts * ts..(idx + 1) * ts * ts];
                    kernels::hotspot_tile(ts, &tile, &ptile, north, south, west, east, out);
                },
            )?;
            phases.push(phase);

            // Write the sweep's results to the other buffer (functional).
            for (idx, out) in (0u64..).zip(out_tiles.chunks_exact(ts * ts)) {
                let coord = [idx % tiles, idx / tiles];
                sys.write(pong, &shape, &coord, &[t, t], &data::f32_bytes(out))?;
            }
            core::mem::swap(&mut ping, &mut pong);
        }

        // Checksum the final grid as stored.
        let zeros = vec![0u64; 2];
        let full = vec![n, n];
        let final_temp = sys.read(ping, &shape, &zeros, &full)?;
        let checksum = kernels::checksum_f32(&data::f32_from_bytes(&final_temp.data));
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &phases, checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        kernels::checksum_f32(&self.compute())
    }
}

/// Separable 2-D convolution over image tiles.
#[derive(Debug, Clone)]
pub struct Conv2d {
    params: WorkloadParams,
}

impl Conv2d {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Conv2d { params }
    }

    fn image(&self) -> Vec<f32> {
        data::matrix_f32(self.params.n, self.params.n, self.params.seed)
    }

    fn compute(&self) -> Vec<f32> {
        let n = self.params.n as usize;
        let t = self.params.tile as usize;
        let tiles = n / t;
        let image = self.image();
        let mut out = vec![0.0f32; n * n];
        let (mut tile, mut tmp) = (Vec::new(), Vec::new());
        let mut o = vec![0.0f32; t * t];
        for ty in 0..tiles {
            for tx in 0..tiles {
                tile_into(&image, n, t, tx, ty, &mut tile);
                kernels::conv2d_tile(t, CONV_RADIUS, &tile, &mut tmp, &mut o);
                place_tile(&mut out, n, t, tx, ty, &o);
            }
        }
        out
    }
}

impl Workload for Conv2d {
    fn name(&self) -> &'static str {
        "Conv2D"
    }

    fn category(&self) -> &'static str {
        "Image Processing"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let n = self.params.n;
        let t = self.params.tile;
        let tiles = n / t;
        let shape = Shape::new([n, n]);
        let image = self.image();
        let img_id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&image))?;
        let out_id = create_empty(sys, &shape, ElementType::F32)?;

        let blocks = tile_blocks(img_id, n, t);

        let ts = t as usize;
        let engine = self.params.cuda_engine();
        // Output tiles back to back in block order.
        let mut out_tiles = vec![0.0f32; (n * n) as usize];
        let (mut tile, mut tmp) = (Vec::new(), Vec::new());
        let phase = stream_phase(
            sys,
            &blocks,
            &engine,
            t,
            Some(LinkConfig::pcie3_x16()),
            |idx, bufs| {
                data::f32_from_bytes_into(&bufs[0], &mut tile);
                let o = &mut out_tiles[idx * ts * ts..(idx + 1) * ts * ts];
                kernels::conv2d_tile(ts, CONV_RADIUS, &tile, &mut tmp, o);
            },
        )?;

        for (idx, o) in (0u64..).zip(out_tiles.chunks_exact(ts * ts)) {
            let coord = [idx % tiles, idx / tiles];
            sys.write(out_id, &shape, &coord, &[t, t], &data::f32_bytes(o))?;
        }
        // `checksum_f32` is order-insensitive: the tile list hashes like
        // the row-major image `compute` returns.
        let checksum = kernels::checksum_f32(&out_tiles);
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &[phase], checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        kernels::checksum_f32(&self.compute())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_system::{BaselineSystem, HardwareNds, SystemConfig};

    #[test]
    fn hotspot_matches_reference() {
        let hs = Hotspot::new(WorkloadParams::tiny_test(31));
        let mut sys = HardwareNds::new(SystemConfig::small_test());
        let run = hs.run(&mut sys).unwrap();
        assert_eq!(run.checksum, hs.reference_checksum());
        assert!(run.commands > 0);
    }

    #[test]
    fn conv2d_matches_reference() {
        let cv = Conv2d::new(WorkloadParams::tiny_test(32));
        let mut sys = BaselineSystem::new(SystemConfig::small_test());
        let run = cv.run(&mut sys).unwrap();
        assert_eq!(run.checksum, cv.reference_checksum());
    }

    #[test]
    fn hotspot_heat_diffuses() {
        let hs = Hotspot::new(WorkloadParams::tiny_test(33));
        let before = hs.initial_temp();
        let after = hs.compute();
        assert_ne!(
            kernels::checksum_f32(&before),
            kernels::checksum_f32(&after),
            "sweeps must change the temperature field"
        );
    }
}
