//! Seeded dataset generators, mirroring the artifact's generators
//! (appendix A.3.4): matrix, tensor, clustering, graph, and pagerank data in
//! binary-encoded form.

use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

/// A dense random `width × height` f32 matrix (row-major, x fastest) —
/// input for Block-GEMM, Conv2D, and Hotspot.
pub fn matrix_f32(width: u64, height: u64, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..width * height)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect()
}

/// A dense random `side³` f32 tensor (x fastest) — input for TTV and TC.
pub fn tensor_f32(side: u64, seed: u64) -> Vec<f32> {
    tensor_slab_f32(side, side, seed)
}

/// The first `depth` slices of [`tensor_f32`]`(side, seed)` — the same
/// generator stream, stopped after `side² · depth` draws, so a workload
/// that reads a shallow slab never materializes the cube behind it.
pub fn tensor_slab_f32(side: u64, depth: u64, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..side * side * depth)
        .map(|_| rng.gen_range(-1.0..1.0))
        .collect()
}

/// `points × attrs` clustering data in `[0, 1)` — shared input of K-Means
/// and KNN, as in the paper (§6.2 pairs their inputs).
pub fn clustering_f32(points: u64, attrs: u64, seed: u64) -> Vec<f32> {
    let mut rng = StdRng::seed_from_u64(seed);
    (0..points * attrs).map(|_| rng.gen::<f32>()).collect()
}

/// A random directed graph as a binary adjacency matrix with `nodes²`
/// entries and approximately `edges` ones — shared input of BFS and SSSP.
/// Every node gets at least one outgoing edge so traversals make progress.
pub fn adjacency_u8(nodes: u64, edges: u64, seed: u64) -> Vec<u8> {
    let mut rng = StdRng::seed_from_u64(seed);
    let mut m = vec![0u8; (nodes * nodes) as usize];
    // A ring guarantees connectivity (i → i+1), matching generators that
    // avoid unreachable nodes dominating run time.
    for i in 0..nodes {
        let j = (i + 1) % nodes;
        m[(i * nodes + j) as usize] = 1;
    }
    let mut placed = nodes;
    while placed < edges {
        let i = rng.gen_range(0..nodes);
        let j = rng.gen_range(0..nodes);
        let cell = &mut m[(i * nodes + j) as usize];
        if *cell == 0 && i != j {
            *cell = 1;
            placed += 1;
        }
    }
    m
}

/// Edge weights for SSSP: weight `w > 0` where an edge exists, `i32::MAX`
/// (no edge) elsewhere. Layout matches [`adjacency_u8`].
pub fn weights_i32(adjacency: &[u8], _nodes: u64, seed: u64) -> Vec<i32> {
    let mut rng = StdRng::seed_from_u64(seed);
    adjacency
        .iter()
        .map(|&a| {
            if a != 0 {
                rng.gen_range(1..100)
            } else {
                i32::MAX
            }
        })
        .collect()
}

/// A column-stochastic-ish link matrix for PageRank: the adjacency matrix
/// normalized per source row into f32 transition shares.
pub fn pagerank_links_f32(adjacency: &[u8], nodes: u64) -> Vec<f32> {
    let mut links = vec![0.0f32; adjacency.len()];
    for i in 0..nodes as usize {
        let row = &adjacency[i * nodes as usize..(i + 1) * nodes as usize];
        let degree = row.iter().filter(|&&a| a != 0).count().max(1) as f32;
        for (j, &a) in row.iter().enumerate() {
            if a != 0 {
                links[i * nodes as usize + j] = 1.0 / degree;
            }
        }
    }
    links
}

/// Reinterprets an f32 slice as little-endian bytes (the generators write
/// binary-encoded files, A.3.4).
pub fn f32_bytes(values: &[f32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Parses little-endian bytes back to f32.
pub fn f32_from_bytes(bytes: &[u8]) -> Vec<f32> {
    let mut out = Vec::new();
    f32_from_bytes_into(bytes, &mut out);
    out
}

/// [`f32_from_bytes`] into a reused buffer (cleared first): what a
/// streaming closure decodes each block's payload with.
#[allow(clippy::expect_used)] // chunks_exact(4) yields 4-byte slices, try_into cannot fail
pub fn f32_from_bytes_into(bytes: &[u8], out: &mut Vec<f32>) {
    out.clear();
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| f32::from_le_bytes(c.try_into().expect("4-byte chunks"))),
    );
}

/// Reinterprets an i32 slice as little-endian bytes.
pub fn i32_bytes(values: &[i32]) -> Vec<u8> {
    values.iter().flat_map(|v| v.to_le_bytes()).collect()
}

/// Parses little-endian bytes back to i32 into a reused buffer (cleared
/// first).
#[allow(clippy::expect_used)] // chunks_exact(4) yields 4-byte slices, try_into cannot fail
pub fn i32_from_bytes_into(bytes: &[u8], out: &mut Vec<i32>) {
    out.clear();
    out.extend(
        bytes
            .chunks_exact(4)
            .map(|c| i32::from_le_bytes(c.try_into().expect("4-byte chunks"))),
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generators_are_deterministic() {
        assert_eq!(matrix_f32(16, 16, 9), matrix_f32(16, 16, 9));
        assert_eq!(tensor_f32(8, 9), tensor_f32(8, 9));
        assert_eq!(tensor_slab_f32(8, 3, 9), tensor_f32(8, 9)[..8 * 8 * 3]);
        assert_eq!(adjacency_u8(32, 96, 9), adjacency_u8(32, 96, 9));
        assert_ne!(matrix_f32(16, 16, 9), matrix_f32(16, 16, 10));
    }

    #[test]
    fn adjacency_has_requested_density_and_ring() {
        let nodes = 64;
        let m = adjacency_u8(nodes, 256, 3);
        let ones: u64 = m.iter().map(|&b| b as u64).sum();
        assert_eq!(ones, 256);
        for i in 0..nodes {
            assert_eq!(
                m[(i * nodes + (i + 1) % nodes) as usize],
                1,
                "ring edge {i}"
            );
        }
    }

    #[test]
    fn weights_follow_adjacency() {
        let m = adjacency_u8(16, 48, 4);
        let w = weights_i32(&m, 16, 5);
        for (a, w) in m.iter().zip(&w) {
            if *a != 0 {
                assert!((1..100).contains(w));
            } else {
                assert_eq!(*w, i32::MAX);
            }
        }
    }

    #[test]
    fn pagerank_rows_sum_to_one() {
        let nodes = 32;
        let m = adjacency_u8(nodes, 128, 6);
        let links = pagerank_links_f32(&m, nodes);
        for i in 0..nodes as usize {
            let sum: f32 = links[i * nodes as usize..(i + 1) * nodes as usize]
                .iter()
                .sum();
            assert!((sum - 1.0).abs() < 1e-5, "row {i} sums to {sum}");
        }
    }

    #[test]
    fn byte_round_trips() {
        let f = vec![1.5f32, -2.25, 0.0];
        assert_eq!(f32_from_bytes(&f32_bytes(&f)), f);
        let i = vec![7i32, -9, i32::MAX];
        // The `_into` forms replace, not append to, what the buffer held.
        let (mut fs, mut is) = (vec![9.0f32; 7], vec![9i32; 7]);
        f32_from_bytes_into(&f32_bytes(&f), &mut fs);
        i32_from_bytes_into(&i32_bytes(&i), &mut is);
        assert_eq!((fs, is), (f, i));
    }
}
