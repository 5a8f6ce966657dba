//! Data-mining workloads: K-Means and KNN (Table 1).
//!
//! Both consume the same clustering dataset — the paper pairs their inputs
//! (§6.2) to show NDS serving one stored dataset to kernels with different
//! block demands. Points have as many attributes as there are points (the
//! paper's square 65,536² dataset), so a compute kernel cannot hold whole
//! rows of every point: it streams **2-D sub-blocks** (point panel ×
//! attribute block) and accumulates partial distances per block (§6.2's
//! "restructure input data into sub-blocks prior to data processing").

use nds_core::{ElementType, Shape};
use nds_interconnect::LinkConfig;
use nds_system::{StorageFrontEnd, SystemError};

use super::util::{create_full, tile_blocks, tile_into};
use super::Workload;
use crate::data;
use crate::driver::{stream_phase, WorkloadRun};
use crate::kernels;
use crate::params::WorkloadParams;

/// Clusters for K-Means.
const K_CLUSTERS: usize = 8;
/// Neighbors for KNN.
const K_NEIGHBORS: usize = 16;

fn points_shape(params: &WorkloadParams) -> Shape {
    // `n` attributes per point, `n` points; attributes fastest.
    Shape::new([params.n, params.n])
}

fn gen_points(params: &WorkloadParams) -> Vec<f32> {
    data::clustering_f32(params.n, params.n, params.seed)
}

/// Gathers attribute block `block` (`width` attributes) of every centroid
/// into `out` (`k × width`, cleared first).
fn centroid_block(centroids: &[f32], d: usize, block: usize, width: usize, out: &mut Vec<f32>) {
    out.clear();
    for centroid in centroids.chunks_exact(d) {
        out.extend_from_slice(&centroid[block * width..(block + 1) * width]);
    }
}

/// K-Means clustering over 2-D sub-blocks of the point matrix.
#[derive(Debug, Clone)]
pub struct KMeans {
    params: WorkloadParams,
}

impl KMeans {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        KMeans { params }
    }

    /// One iteration over the in-memory matrix with the *same* blocked
    /// visit order as the storage-driven run (bit-identical accumulation).
    fn iterate(&self, points: &[f32], centroids: &mut [f32]) {
        let d = self.params.n as usize;
        let t = self.params.tile as usize;
        let panels = d / t;
        let mut sums = vec![0.0f64; K_CLUSTERS * d];
        let mut counts = vec![0u64; K_CLUSTERS];
        let mut dist = vec![0.0f32; t * K_CLUSTERS];
        let (mut tile, mut cblock) = (Vec::new(), Vec::new());
        for p in 0..panels {
            dist.fill(0.0);
            for a in 0..panels {
                // Tile (a, p): points p·t.., attributes a·t.., attr fastest.
                tile_into(points, d, t, a, p, &mut tile);
                centroid_block(centroids, d, a, t, &mut cblock);
                kernels::sqdist_tile(&tile, t, &cblock, &mut dist);
            }
            for r in 0..t {
                let mut best = 0usize;
                let mut best_d = f32::INFINITY;
                for c in 0..K_CLUSTERS {
                    if dist[r * K_CLUSTERS + c] < best_d {
                        best_d = dist[r * K_CLUSTERS + c];
                        best = c;
                    }
                }
                counts[best] += 1;
                let row = (p * t + r) * d;
                for (j, s) in sums[best * d..(best + 1) * d].iter_mut().enumerate() {
                    *s += points[row + j] as f64;
                }
            }
        }
        kernels::kmeans_update(&sums, &counts, d, centroids);
    }

    fn compute(&self, points: &[f32]) -> Vec<f32> {
        let d = self.params.n as usize;
        let mut centroids: Vec<f32> = points[..K_CLUSTERS * d].to_vec();
        for _ in 0..self.params.iterations {
            self.iterate(points, &mut centroids);
        }
        centroids
    }
}

impl Workload for KMeans {
    fn name(&self) -> &'static str {
        "KMeans"
    }

    fn category(&self) -> &'static str {
        "Data Mining"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let shape = points_shape(&self.params);
        let points = gen_points(&self.params);
        let id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&points))?;

        let d = self.params.n as usize;
        let t = self.params.tile;
        let ts = t as usize;
        let panels = self.params.n / t;
        let mut centroids: Vec<f32> = points[..K_CLUSTERS * d].to_vec();
        let engine = self.params.cuda_engine();
        let mut phases = Vec::new();
        // Blocks in (point panel, attribute block) order; the point
        // panel's tiles are stashed (one reused buffer per attribute block)
        // so the assignment step can accumulate full attribute sums without
        // a second I/O pass.
        let blocks = tile_blocks(id, self.params.n, t);
        let mut dist = vec![0.0f32; ts * K_CLUSTERS];
        let mut stash: Vec<Vec<f32>> = vec![Vec::new(); panels as usize];
        let mut cblock = Vec::new();
        for _ in 0..self.params.iterations {
            let mut sums = vec![0.0f64; K_CLUSTERS * d];
            let mut counts = vec![0u64; K_CLUSTERS];
            let phase = stream_phase(
                sys,
                &blocks,
                &engine,
                t,
                Some(LinkConfig::pcie3_x16()),
                |idx, bufs| {
                    let a = idx % panels as usize;
                    if a == 0 {
                        dist.fill(0.0);
                    }
                    data::f32_from_bytes_into(&bufs[0], &mut stash[a]);
                    centroid_block(&centroids, d, a, ts, &mut cblock);
                    kernels::sqdist_tile(&stash[a], ts, &cblock, &mut dist);
                    if a + 1 == panels as usize {
                        for r in 0..ts {
                            let mut best = 0usize;
                            let mut best_d = f32::INFINITY;
                            for c in 0..K_CLUSTERS {
                                if dist[r * K_CLUSTERS + c] < best_d {
                                    best_d = dist[r * K_CLUSTERS + c];
                                    best = c;
                                }
                            }
                            counts[best] += 1;
                            for (blk, tile) in stash.iter().enumerate() {
                                let dst = &mut sums[best * d + blk * ts..best * d + (blk + 1) * ts];
                                for (s, v) in dst.iter_mut().zip(&tile[r * ts..(r + 1) * ts]) {
                                    *s += *v as f64;
                                }
                            }
                        }
                    }
                },
            )?;
            phases.push(phase);
            kernels::kmeans_update(&sums, &counts, d, &mut centroids);
        }
        let checksum = kernels::checksum_f32(&centroids);
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &phases, checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        kernels::checksum_f32(&self.compute(&gen_points(&self.params)))
    }
}

/// K-nearest-neighbor search over 2-D sub-blocks of the point matrix.
#[derive(Debug, Clone)]
pub struct Knn {
    params: WorkloadParams,
}

impl Knn {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Knn { params }
    }

    fn compute(&self, points: &[f32]) -> Vec<(f32, u64)> {
        let d = self.params.n as usize;
        let t = self.params.tile as usize;
        let panels = d / t;
        let query: Vec<f32> = points[..d].to_vec();
        let mut best: Vec<(f32, u64)> = Vec::new();
        let mut dist = vec![0.0f32; t];
        let mut tile = Vec::new();
        for p in 0..panels {
            dist.fill(0.0);
            for a in 0..panels {
                tile_into(points, d, t, a, p, &mut tile);
                kernels::sqdist_tile(&tile, t, &query[a * t..(a + 1) * t], &mut dist);
            }
            merge_knn(&dist, (p * t) as u64, &mut best);
        }
        best
    }
}

/// Merges a panel's complete distances into the running k-best list.
fn merge_knn(dist: &[f32], base: u64, best: &mut Vec<(f32, u64)>) {
    for (r, &d) in dist.iter().enumerate() {
        let idx = base + r as u64;
        if best.len() < K_NEIGHBORS {
            best.push((d, idx));
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        } else if d < {
            #[allow(clippy::expect_used)] // the branch above guarantees best is non-empty
            best.last().expect("non-empty").0
        } {
            best.pop();
            best.push((d, idx));
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
    }
}

impl Workload for Knn {
    fn name(&self) -> &'static str {
        "KNN"
    }

    fn category(&self) -> &'static str {
        "Data Mining"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let shape = points_shape(&self.params);
        let points = gen_points(&self.params);
        let id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&points))?;

        let d = self.params.n as usize;
        let t = self.params.tile;
        let ts = t as usize;
        let panels = self.params.n / t;
        let query: Vec<f32> = points[..d].to_vec();
        let engine = self.params.cuda_engine();

        let blocks = tile_blocks(id, self.params.n, t);
        let mut best: Vec<(f32, u64)> = Vec::new();
        let mut dist = vec![0.0f32; ts];
        let mut tile = Vec::new();
        let phase = stream_phase(
            sys,
            &blocks,
            &engine,
            t,
            Some(LinkConfig::pcie3_x16()),
            |idx, bufs| {
                let a = idx as u64 % panels;
                let p = idx as u64 / panels;
                if a == 0 {
                    dist.fill(0.0);
                }
                data::f32_from_bytes_into(&bufs[0], &mut tile);
                kernels::sqdist_tile(
                    &tile,
                    ts,
                    &query[(a as usize) * ts..(a as usize + 1) * ts],
                    &mut dist,
                );
                if a == panels - 1 {
                    merge_knn(&dist, p * t, &mut best);
                }
            },
        )?;
        let checksum = kernels::checksum_u64(best.iter().map(|&(_, i)| i));
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &[phase], checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        let best = self.compute(&gen_points(&self.params));
        kernels::checksum_u64(best.iter().map(|&(_, i)| i))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_system::{HardwareNds, SoftwareNds, SystemConfig};

    #[test]
    fn kmeans_matches_reference() {
        let km = KMeans::new(WorkloadParams::tiny_test(21));
        let mut sys = SoftwareNds::new(SystemConfig::small_test());
        let run = km.run(&mut sys).unwrap();
        assert_eq!(run.checksum, km.reference_checksum());
    }

    #[test]
    fn knn_matches_reference_and_finds_query_itself() {
        let knn = Knn::new(WorkloadParams::tiny_test(22));
        let mut sys = HardwareNds::new(SystemConfig::small_test());
        let run = knn.run(&mut sys).unwrap();
        assert_eq!(run.checksum, knn.reference_checksum());
        let best = knn.compute(&gen_points(&WorkloadParams::tiny_test(22)));
        assert_eq!(best[0].1, 0, "nearest neighbor of point 0 is itself");
        assert_eq!(best.len(), K_NEIGHBORS);
    }

    #[test]
    fn shared_dataset_different_kernels() {
        // KMeans and KNN consume the identical generated bytes (§6.2).
        let p = WorkloadParams::tiny_test(23);
        assert_eq!(gen_points(&p), gen_points(&p));
    }
}
