//! Graph workloads: BFS, SSSP (Bellman-Ford), and PageRank (Table 1).
//!
//! All three traverse a dense adjacency representation (the artifact's
//! generators emit binary adjacency matrices, A.3.4). BFS reads individual
//! rows along the frontier — a *sequential-friendly* pattern, which is why
//! the paper finds BFS "receives almost no benefit from the software-only
//! NDS" (§7.2). SSSP and PageRank, like every other kernel in §6.2, process
//! the matrix in 2-D sub-blocks sized to fit the accelerator.

use nds_core::{ElementType, Shape};
use nds_interconnect::LinkConfig;
use nds_system::{StorageFrontEnd, SystemError};

use super::util::{create_full, tile_blocks, tile_into};
use super::Workload;
use crate::data;
use crate::driver::{stream_phase, BlockReads, WorkloadRun};
use crate::kernels;
use crate::params::WorkloadParams;

/// Upper bound on relaxation rounds for SSSP (random graphs at our density
/// converge in far fewer; the cap keeps adversarial seeds bounded).
const MAX_SSSP_ROUNDS: usize = 32;

fn edges_for(n: u64) -> u64 {
    8 * n // average out-degree 8, matching sparse-graph benchmarks
}

/// Breadth-first search over a binary adjacency matrix.
#[derive(Debug, Clone)]
pub struct Bfs {
    params: WorkloadParams,
}

impl Bfs {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Bfs { params }
    }

    fn graph(&self) -> Vec<u8> {
        data::adjacency_u8(self.params.n, edges_for(self.params.n), self.params.seed)
    }

    fn compute(&self, adj: &[u8]) -> Vec<u32> {
        let n = self.params.n as usize;
        let mut levels = vec![u32::MAX; n];
        levels[0] = 0;
        let mut frontier = vec![0u64];
        let mut level = 0;
        while !frontier.is_empty() {
            let mut next = Vec::new();
            for &node in &frontier {
                let row = &adj[node as usize * n..(node as usize + 1) * n];
                next.extend(kernels::bfs_expand(row, level, &mut levels));
            }
            next.sort_unstable();
            frontier = next;
            level += 1;
        }
        levels
    }
}

impl Workload for Bfs {
    fn name(&self) -> &'static str {
        "BFS"
    }

    fn category(&self) -> &'static str {
        "Graph Traversal"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.n, 1] // one adjacency row (Table 1: 1-D kernel)
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let n = self.params.n;
        let shape = Shape::new([n, n]);
        let adj = self.graph();
        let id = create_full(sys, &shape, ElementType::U8, &adj)?;

        let engine = self.params.host_engine();
        let mut levels = vec![u32::MAX; n as usize];
        levels[0] = 0;
        let mut frontier = vec![0u64];
        let mut level = 0u32;
        let mut phases = Vec::new();
        while !frontier.is_empty() {
            let blocks: Vec<BlockReads> = frontier
                .iter()
                .map(|&node| vec![(id, shape.clone(), vec![0, node], vec![n, 1])])
                .collect();
            let mut next = Vec::new();
            let phase = stream_phase(sys, &blocks, &engine, self.params.tile, None, |_, bufs| {
                next.extend(kernels::bfs_expand(&bufs[0], level, &mut levels));
            })?;
            phases.push(phase);
            next.sort_unstable();
            frontier = next;
            level += 1;
        }
        let checksum = kernels::checksum_u64(levels.iter().map(|&l| l as u64));
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &phases, checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        let levels = self.compute(&self.graph());
        kernels::checksum_u64(levels.iter().map(|&l| l as u64))
    }
}

/// Single-source shortest paths via Bellman-Ford over weight sub-blocks.
#[derive(Debug, Clone)]
pub struct Sssp {
    params: WorkloadParams,
}

impl Sssp {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        Sssp { params }
    }

    fn weights(&self) -> Vec<i32> {
        let adj = data::adjacency_u8(self.params.n, edges_for(self.params.n), self.params.seed);
        data::weights_i32(&adj, self.params.n, self.params.seed ^ 0x55AA)
    }

    fn compute(&self, w: &[i32]) -> Vec<i64> {
        let n = self.params.n as usize;
        let t = self.params.tile as usize;
        let tiles = n / t;
        let mut dist = vec![i64::MAX; n];
        dist[0] = 0;
        let mut tile = Vec::new();
        for _ in 0..MAX_SSSP_ROUNDS {
            let mut changed = false;
            for rp in 0..tiles {
                for cb in 0..tiles {
                    tile_into(w, n, t, cb, rp, &mut tile);
                    changed |= kernels::bellman_ford_tile(&tile, t, rp * t, cb * t, &mut dist);
                }
            }
            if !changed {
                break;
            }
        }
        dist
    }
}

impl Workload for Sssp {
    fn name(&self) -> &'static str {
        "SSSP"
    }

    fn category(&self) -> &'static str {
        "Graph Traversal"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let n = self.params.n;
        let t = self.params.tile;
        let ts = t as usize;
        let tiles = n / t;
        let shape = Shape::new([n, n]);
        let w = self.weights();
        let id = create_full(sys, &shape, ElementType::I32, &data::i32_bytes(&w))?;

        let engine = self.params.host_engine();
        let mut dist = vec![i64::MAX; n as usize];
        dist[0] = 0;
        let mut phases = Vec::new();
        let blocks = tile_blocks(id, n, t);
        let mut tile = Vec::new();
        for _ in 0..MAX_SSSP_ROUNDS {
            let mut changed = false;
            let phase = stream_phase(sys, &blocks, &engine, t, None, |idx, bufs| {
                let rp = idx as u64 / tiles;
                let cb = idx as u64 % tiles;
                data::i32_from_bytes_into(&bufs[0], &mut tile);
                changed |= kernels::bellman_ford_tile(
                    &tile,
                    ts,
                    (rp * t) as usize,
                    (cb * t) as usize,
                    &mut dist,
                );
            })?;
            phases.push(phase);
            if !changed {
                break;
            }
        }
        let checksum = kernels::checksum_u64(dist.iter().map(|&d| d as u64));
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &phases, checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        let dist = self.compute(&self.weights());
        kernels::checksum_u64(dist.iter().map(|&d| d as u64))
    }
}

/// PageRank power iteration over link-matrix sub-blocks.
#[derive(Debug, Clone)]
pub struct PageRank {
    params: WorkloadParams,
}

impl PageRank {
    /// Creates the workload.
    ///
    /// # Panics
    ///
    /// Panics if `params` is invalid.
    pub fn new(params: WorkloadParams) -> Self {
        params.validate();
        PageRank { params }
    }

    fn links(&self) -> Vec<f32> {
        let adj = data::adjacency_u8(self.params.n, edges_for(self.params.n), self.params.seed);
        data::pagerank_links_f32(&adj, self.params.n)
    }

    fn damp(next: &[f64], n: usize) -> Vec<f32> {
        let damping = 0.85f64;
        let base = (1.0 - damping) / n as f64;
        next.iter().map(|&v| (base + damping * v) as f32).collect()
    }

    fn compute(&self, links: &[f32]) -> Vec<f32> {
        let n = self.params.n as usize;
        let t = self.params.tile as usize;
        let tiles = n / t;
        let mut rank = vec![1.0f32 / n as f32; n];
        let mut tile = Vec::new();
        for _ in 0..self.params.iterations {
            let mut next = vec![0.0f64; n];
            for rp in 0..tiles {
                for cb in 0..tiles {
                    tile_into(links, n, t, cb, rp, &mut tile);
                    kernels::pagerank_tile(&tile, t, rp * t, cb * t, &rank, &mut next);
                }
            }
            rank = Self::damp(&next, n);
        }
        rank
    }
}

impl Workload for PageRank {
    fn name(&self) -> &'static str {
        "PageRank"
    }

    fn category(&self) -> &'static str {
        "Graph"
    }

    fn kernel_tile(&self) -> Vec<u64> {
        vec![self.params.tile, self.params.tile]
    }

    fn run(&self, sys: &mut dyn StorageFrontEnd) -> Result<WorkloadRun, SystemError> {
        let n = self.params.n;
        let t = self.params.tile;
        let ts = t as usize;
        let tiles = n / t;
        let shape = Shape::new([n, n]);
        let links = self.links();
        let id = create_full(sys, &shape, ElementType::F32, &data::f32_bytes(&links))?;

        let engine = self.params.cuda_engine();
        let ns = n as usize;
        let mut rank = vec![1.0f32 / n as f32; ns];
        let mut phases = Vec::new();
        let blocks = tile_blocks(id, n, t);
        let mut tile = Vec::new();
        for _ in 0..self.params.iterations {
            let mut next = vec![0.0f64; ns];
            let phase = stream_phase(
                sys,
                &blocks,
                &engine,
                t,
                Some(LinkConfig::pcie3_x16()),
                |idx, bufs| {
                    let rp = idx as u64 / tiles;
                    let cb = idx as u64 % tiles;
                    data::f32_from_bytes_into(&bufs[0], &mut tile);
                    kernels::pagerank_tile(
                        &tile,
                        ts,
                        (rp * t) as usize,
                        (cb * t) as usize,
                        &rank,
                        &mut next,
                    );
                },
            )?;
            phases.push(phase);
            rank = Self::damp(&next, ns);
        }
        let checksum = kernels::checksum_f32(&rank);
        Ok(
            WorkloadRun::from_phases(self.name(), sys.name(), &phases, checksum)
                .with_fault_counters(&sys.stats()),
        )
    }

    fn reference_checksum(&self) -> u64 {
        kernels::checksum_f32(&self.compute(&self.links()))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nds_system::{BaselineSystem, SoftwareNds, SystemConfig};

    #[test]
    fn bfs_matches_reference_and_visits_all_reachable() {
        let bfs = Bfs::new(WorkloadParams::tiny_test(11));
        let mut sys = BaselineSystem::new(SystemConfig::small_test());
        let run = bfs.run(&mut sys).unwrap();
        assert_eq!(run.checksum, bfs.reference_checksum());
        // The ring edge guarantees every node is reachable: n row reads.
        assert_eq!(run.bytes, 256 * 256);
    }

    #[test]
    fn sssp_matches_reference() {
        let sssp = Sssp::new(WorkloadParams::tiny_test(12));
        let mut sys = SoftwareNds::new(SystemConfig::small_test());
        let run = sssp.run(&mut sys).unwrap();
        assert_eq!(run.checksum, sssp.reference_checksum());
    }

    #[test]
    fn sssp_distances_are_finite() {
        let sssp = Sssp::new(WorkloadParams::tiny_test(13));
        let dist = sssp.compute(&sssp.weights());
        assert!(
            dist.iter().all(|&d| d != i64::MAX),
            "ring keeps all reachable"
        );
        assert_eq!(dist[0], 0);
    }

    #[test]
    fn pagerank_matches_reference_and_sums_to_one() {
        let pr = PageRank::new(WorkloadParams::tiny_test(14));
        let mut sys = BaselineSystem::new(SystemConfig::small_test());
        let run = pr.run(&mut sys).unwrap();
        assert_eq!(run.checksum, pr.reference_checksum());
        let rank = pr.compute(&pr.links());
        let total: f32 = rank.iter().sum();
        assert!((total - 1.0).abs() < 1e-3, "rank mass ≈ 1, got {total}");
    }
}
