//! Tensor-algebra workloads: TTV and TC (Table 1).
//!
//! Both stream 2-D kernel tiles of 3-D tensor slices — the paper's 2048³
//! tensors with 512² kernel sub-blocks: the consumer views a 3-D space
//! through 2-D tiles *smaller than a slice*, so tile rows are scattered in
//! any linear serialization. This is the dimensionality decoupling NDS is
//! built for (§3, Fig. 5). The two workloads share the same generated
//! tensor, as in the paper (§6.2).

use nds_core::{ElementType, Shape};
use nds_interconnect::LinkConfig;
use nds_system::{StorageFrontEnd, SystemError};

use super::util::{create_full, tile_into};
use super::Workload;
use crate::data;
use crate::driver::{stream_phase, BlockReads, WorkloadRun};
use crate::kernels;
use crate::params::WorkloadParams;

/// Slice side: twice the kernel tile, so kernel tiles are quarter-slices —
/// mirroring the paper's 2048²-slice / 512²-kernel ratio class, with the
/// kernel tile matching the building-block width (as the paper's 512²
/// kernels match its 512-wide f32 blocks).
fn side(params: &WorkloadParams) -> u64 {
    params.tile * 2
}

/// Kernel tile side.
fn ktile(params: &WorkloadParams) -> u64 {
    params.tile
}

/// Tensor depth (number of slices). TTV touches each slice once with a
/// trivial kernel; TC runs a blocked matmul per slice, so it uses fewer.
fn depth(params: &WorkloadParams, for_tc: bool) -> u64 {
    let d = if for_tc {
        params.tile / 16
    } else {
        params.tile / 4
    };
    d.max(4)
}

fn weights(params: &WorkloadParams) -> Vec<f32> {
    data::matrix_f32(depth(params, false), 1, params.seed ^ 0x7777)
}

/// Slice `s` (an `m × m` matrix) of an in-memory `(m, m, d)` tensor.
fn slice_of(tensor: &[f32], m: usize, s: usize) -> &[f32] {
    &tensor[s * m * m..(s + 1) * m * m]
}

/// Tensor-times-vector over the slowest mode: `out = Σₛ v[s] · T[·,·,s]`,
/// streamed in quarter-slice kernel tiles.
#[derive(Debug, Clone)]
pub struct Ttv {
    params: WorkloadParams,
}

impl Ttv {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Ttv { params }
    }

    fn tensor(&self) -> Vec<f32> {
        data::tensor_slab_f32(
            side(&self.params),
            depth(&self.params, false),
            self.params.seed,
        )
    }

    fn compute(&self) -> Vec<f32> {
        let m = side(&self.params) as usize;
        let q = ktile(&self.params) as usize;
        let grid = m / q;
        let slices = depth(&self.params, false) as usize;
        let tensor = self.tensor();
        let v = weights(&self.params);
        let mut out = vec![0.0f32; m * m];
        let mut tile = Vec::new();
        for (s, &weight) in v.iter().enumerate().take(slices) {
            for ty in 0..grid {
                for tx in 0..grid {
                    tile_into(slice_of(&tensor, m, s), m, q, tx, ty, &mut tile);
                    for y in 0..q {
                        let row = (ty * q + y) * m + tx * q;
                        kernels::ttv_slice(
                            &tile[y * q..(y + 1) * q],
                            weight,
                            &mut out[row..row + q],
                        );
                    }
                }
            }
        }
        out
    }
}

impl Workload for Ttv {
    fn name(&self) -> &'static str {
        "TTV"
    }

    fn category(&self) -> &'static str {
        "Tensor Algebra"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        let q = ktile(&self.params);
        vec![q, q, 1]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let m = side(&self.params);
        let q = ktile(&self.params);
        let grid = m / q;
        let slices = depth(&self.params, false);
        let shape = Shape::new([m, m, slices]);
        let tensor = self.tensor();
        let id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&tensor))?;
        let v = weights(&self.params);

        let blocks: Vec<BlockReads> = (0..slices)
            .flat_map(|s| {
                (0..grid * grid).map(move |g| -> BlockReads {
                    let ty = g / grid;
                    let tx = g % grid;
                    vec![(
                        id,
                        Shape::new([m, m, slices]),
                        vec![tx, ty, s],
                        vec![q, q, 1],
                    )]
                })
            })
            .collect();
        let ms = m as usize;
        let qs = q as usize;
        let grids = grid as usize;
        let mut out = vec![0.0f32; ms * ms];
        let mut tile = Vec::new();
        let engine = self.params.tensor_engine();
        let phase = stream_phase(
            sys,
            &blocks,
            &engine,
            q,
            Some(LinkConfig::pcie3_x16()),
            |idx, bufs| {
                let s = idx / (grids * grids);
                let g = idx % (grids * grids);
                let ty = g / grids;
                let tx = g % grids;
                data::f32_from_bytes_into(&bufs[0], &mut tile);
                for y in 0..qs {
                    let row = (ty * qs + y) * ms + tx * qs;
                    kernels::ttv_slice(&tile[y * qs..(y + 1) * qs], v[s], &mut out[row..row + qs]);
                }
            },
        )?;
        let checksum = kernels::checksum_f32(&out);
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &[phase], checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        kernels::checksum_f32(&self.compute())
    }
}

/// Tensor contraction over the slowest mode:
/// `C[i,j] = Σₛ Σₖ A[i,k,s] · B[k,j,s]`, blocked into quarter-slice tiles.
#[derive(Debug, Clone)]
pub struct Tc {
    params: WorkloadParams,
}

impl Tc {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Tc { params }
    }

    fn tensors(&self) -> (Vec<f32>, Vec<f32>) {
        // A shares TTV's tensor prefix (the paper pairs their inputs, §6.2).
        let d = depth(&self.params, true);
        (
            data::tensor_slab_f32(side(&self.params), d, self.params.seed),
            data::tensor_slab_f32(side(&self.params), d, self.params.seed ^ 0x1234),
        )
    }

    fn compute(&self) -> Vec<f32> {
        let m = side(&self.params) as usize;
        let q = ktile(&self.params) as usize;
        let grid = m / q;
        let slices = depth(&self.params, true) as usize;
        let (a, b) = self.tensors();
        // C tiles back to back in (i, j) order, accumulated over (s, k)
        // exactly as the streamed run does.
        let mut c_tiles = vec![0.0f32; m * m];
        let (mut at, mut bt) = (Vec::new(), Vec::new());
        for s in 0..slices {
            for (ij, c_tile) in c_tiles.chunks_exact_mut(q * q).enumerate() {
                let (i, j) = (ij / grid, ij % grid);
                for k in 0..grid {
                    tile_into(slice_of(&a, m, s), m, q, k, i, &mut at);
                    tile_into(slice_of(&b, m, s), m, q, j, k, &mut bt);
                    kernels::gemm_tile(q, &at, &bt, c_tile);
                }
            }
        }
        c_tiles
    }
}

impl Workload for Tc {
    fn name(&self) -> &'static str {
        "TC"
    }

    fn category(&self) -> &'static str {
        "Tensor Algebra"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        let q = ktile(&self.params);
        vec![q, q, 1]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let m = side(&self.params);
        let q = ktile(&self.params);
        let grid = m / q;
        let slices = depth(&self.params, true);
        let shape = Shape::new([m, m, slices]);
        let (a, b) = self.tensors();
        let a_id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&a))?;
        let b_id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&b))?;

        let mut blocks: Vec<BlockReads> = Vec::new();
        for s in 0..slices {
            for i in 0..grid {
                for j in 0..grid {
                    for k in 0..grid {
                        blocks.push(vec![
                            (
                                a_id,
                                Shape::new([m, m, slices]),
                                vec![k, i, s],
                                vec![q, q, 1],
                            ),
                            (
                                b_id,
                                Shape::new([m, m, slices]),
                                vec![j, k, s],
                                vec![q, q, 1],
                            ),
                        ]);
                    }
                }
            }
        }
        let qs = q as usize;
        let grids = grid as usize;
        let mut c_tiles = vec![0.0f32; grids * grids * qs * qs];
        let (mut at, mut bt) = (Vec::new(), Vec::new());
        let engine = self.params.tensor_engine();
        let phase = stream_phase(
            sys,
            &blocks,
            &engine,
            q,
            Some(LinkConfig::pcie3_x16()),
            |idx, bufs| {
                // Blocks run (s, i, j, k): the C tile is (i, j).
                let ij = (idx / grids) % (grids * grids);
                data::f32_from_bytes_into(&bufs[0], &mut at);
                data::f32_from_bytes_into(&bufs[1], &mut bt);
                let c_tile = &mut c_tiles[ij * qs * qs..(ij + 1) * qs * qs];
                kernels::gemm_tile(qs, &at, &bt, c_tile);
            },
        )?;
        let checksum = kernels::checksum_f32(&c_tiles);
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
    use nds_system::{BaselineSystem, SoftwareNds, SystemConfig};

    #[test]
    fn ttv_matches_reference() {
        let ttv = Ttv::new(WorkloadParams::tiny_test(41));
        let mut sys = SoftwareNds::new(SystemConfig::small_test());
        let run = ttv.run(&mut sys).unwrap();
        assert_eq!(run.checksum, ttv.reference_checksum());
    }

    #[test]
    fn tc_matches_reference() {
        let tc = Tc::new(WorkloadParams::tiny_test(42));
        let mut sys = BaselineSystem::new(SystemConfig::small_test());
        let run = tc.run(&mut sys).unwrap();
        assert_eq!(run.checksum, tc.reference_checksum());
    }

    #[test]
    fn ttv_and_tc_share_the_first_tensor() {
        // TC uses a shallower prefix of the same generated tensor (§6.2's
        // shared inputs; TC's per-slice matmuls are costlier, so it reads
        // fewer slices).
        let p = WorkloadParams::tiny_test(43);
        let ttv = Ttv::new(p);
        let tc = Tc::new(p);
        let tc_a = tc.tensors().0;
        assert_eq!(ttv.tensor()[..tc_a.len()], tc_a[..]);
    }

    #[test]
    fn ttv_result_is_weighted_sum_of_slices() {
        let p = WorkloadParams::tiny_test(44);
        let ttv = Ttv::new(p);
        let out = ttv.compute();
        // Spot-check one element against the direct definition.
        let m = side(&p) as usize;
        let tensor = ttv.tensor();
        let v = weights(&p);
        let slices = depth(&p, false) as usize;
        let direct: f32 = (0..slices)
            .map(|s| v[s] * tensor[s * m * m + 5 * m + 3])
            .sum();
        assert!((out[5 * m + 3] - direct).abs() < 1e-3);
    }
}
