//! Block-GEMM (Table 1: Linear Algebra; MSplitGEMM-with-Tensor-Cores
//! baseline).
//!
//! `C = A × B` over matrices larger than device memory: the classic
//! pipelined blocked multiplication of Fig. 1. For each output tile
//! `C[i][j]`, the inner loop streams tile pairs `A[i][k]`, `B[k][j]` from
//! storage — and `B`'s tiles are square submatrices, the access pattern that
//! a row-serialized baseline serves worst (\[P1\]–\[P3\]).

use nds_core::{ElementType, Shape};
use nds_interconnect::LinkConfig;
use nds_system::{StorageFrontEnd, SystemError};

use super::util::{create_empty, create_full, place_tile, tile_into};
use super::Workload;
use crate::data;
use crate::driver::{stream_phase, BlockReads, WorkloadRun};
use crate::kernels;
use crate::params::WorkloadParams;

/// Blocked dense matrix multiplication on Tensor-Core-class hardware.
#[derive(Debug, Clone)]
pub struct Gemm {
    params: WorkloadParams,
}

impl Gemm {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid (see [`WorkloadParams::validate`]).
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Gemm { params }
    }

    fn inputs(&self) -> (Vec<f32>, Vec<f32>) {
        let n = self.params.n;
        (
            data::matrix_f32(n, n, self.params.seed),
            data::matrix_f32(n, n, self.params.seed ^ 0xA5A5),
        )
    }

    /// Runs the identical blocked computation purely in memory.
    fn compute(&self, a: &[f32], b: &[f32]) -> Vec<f32> {
        let n = self.params.n as usize;
        let t = self.params.tile as usize;
        let tiles = n / t;
        let mut c = vec![0.0f32; n * n];
        let mut acc = vec![0.0f32; t * t];
        let (mut at, mut bt) = (Vec::new(), Vec::new());
        for i in 0..tiles {
            for j in 0..tiles {
                acc.fill(0.0);
                for k in 0..tiles {
                    tile_into(a, n, t, k, i, &mut at);
                    tile_into(b, n, t, j, k, &mut bt);
                    kernels::gemm_tile(t, &at, &bt, &mut acc);
                }
                place_tile(&mut c, n, t, j, i, &acc);
            }
        }
        c
    }
}

impl Workload for Gemm {
    fn name(&self) -> &'static str {
        "GEMM"
    }

    fn category(&self) -> &'static str {
        "Linear Algebra"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let n = self.params.n;
        let t = self.params.tile;
        let tiles = n / t;
        let shape = Shape::new([n, n]);
        let (a, b) = self.inputs();
        let a_id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&a))?;
        let b_id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&b))?;
        let c_id = create_empty(sys, &shape, ElementType::F32)?;

        // One pipeline block per (i, j, k) step: read A[i][k] and B[k][j].
        let mut blocks: Vec<BlockReads> = Vec::with_capacity((tiles * tiles * tiles) as usize);
        for i in 0..tiles {
            for j in 0..tiles {
                for k in 0..tiles {
                    blocks.push(vec![
                        (a_id, shape.clone(), vec![k, i], vec![t, t]),
                        (b_id, shape.clone(), vec![j, k], vec![t, t]),
                    ]);
                }
            }
        }

        let ts = t as usize;
        let mut acc = vec![0.0f32; ts * ts];
        let (mut at, mut bt) = (Vec::new(), Vec::new());
        // Finished C tiles, back to back in (i, j) order.
        let mut c_tiles: Vec<f32> = Vec::with_capacity((n * n) as usize);
        let engine = self.params.tensor_engine();
        let phase = stream_phase(
            sys,
            &blocks,
            &engine,
            t,
            Some(LinkConfig::pcie3_x16()),
            |idx, buffers| {
                let k = idx as u64 % tiles;
                if k == 0 {
                    acc.fill(0.0);
                }
                data::f32_from_bytes_into(&buffers[0], &mut at);
                data::f32_from_bytes_into(&buffers[1], &mut bt);
                kernels::gemm_tile(ts, &at, &bt, &mut acc);
                if k == tiles - 1 {
                    c_tiles.extend_from_slice(&acc);
                }
            },
        )?;

        // Persist C (functional; the paper's pipelines overlap result
        // write-back asynchronously, so it is not part of the timed path).
        for (ij, tile) in (0u64..).zip(c_tiles.chunks_exact(ts * ts)) {
            let coord = [ij % tiles, ij / tiles];
            sys.write(c_id, &shape, &coord, &[t, t], &data::f32_bytes(tile))?;
        }
        let checksum = kernels::checksum_f32(&c_tiles);
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &[phase], checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        let (a, b) = self.inputs();
        // `checksum_f32` is order-insensitive, so the row-major matrix and
        // `run`'s tile-by-tile list of the same values hash alike.
        kernels::checksum_f32(&self.compute(&a, &b))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_system::{BaselineSystem, SystemConfig};

    #[test]
    fn gemm_matches_reference_on_baseline() {
        let gemm = Gemm::new(WorkloadParams::tiny_test(3));
        let mut sys = BaselineSystem::new(SystemConfig::small_test());
        let run = gemm.run(&mut sys).unwrap();
        assert_eq!(run.checksum, gemm.reference_checksum());
        assert_eq!(run.workload, "GEMM");
        assert!(run.commands > 0);
        // (n/t)³ blocks × 2 tiles each.
        let tiles = (256 / 64) as u64;
        assert_eq!(run.bytes, tiles * tiles * tiles * 2 * 64 * 64 * 4);
    }
}
