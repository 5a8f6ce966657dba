//! Reference compute kernels.
//!
//! These are the *functional* kernels the workloads execute on every
//! architecture: plain, deterministic Rust implementations of the operations
//! the paper offloads to GPUs. Their timing comes from the accelerator model
//! (`nds-accel`); their outputs are what the tests validate.

/// `c += a × b` for `t × t` row-major f32 tiles (x fastest: `a[x + t*y]`).
///
/// # Panics
///
/// Panics if any slice is not `t²` long.
pub fn gemm_tile(t: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    assert_eq!(a.len(), t * t);
    assert_eq!(b.len(), t * t);
    assert_eq!(c.len(), t * t);
    // ikj loop order keeps the inner loop streaming over b and c rows.
    for i in 0..t {
        for k in 0..t {
            let aik = a[k + t * i];
            if aik == 0.0 {
                continue;
            }
            let brow = &b[t * k..t * k + t];
            let crow = &mut c[t * i..t * i + t];
            for j in 0..t {
                crow[j] += aik * brow[j];
            }
        }
    }
}

/// One BFS expansion: given a node's adjacency row and its level, marks
/// unvisited neighbors with `level + 1`. Returns the newly discovered nodes.
pub fn bfs_expand(row: &[u8], level: u32, levels: &mut [u32]) -> Vec<u64> {
    let mut discovered = Vec::new();
    for (j, &edge) in row.iter().enumerate() {
        if edge != 0 && levels[j] == u32::MAX {
            levels[j] = level + 1;
            discovered.push(j as u64);
        }
    }
    discovered
}

/// One Bellman-Ford relaxation sweep over a panel of weight rows
/// (`rows × n`, row `r` holds edges out of node `base + r`). Returns true if
/// any distance improved.
pub fn bellman_ford_panel(panel: &[i32], n: usize, base: usize, dist: &mut [i64]) -> bool {
    let rows = panel.len() / n;
    let mut changed = false;
    for r in 0..rows {
        let du = dist[base + r];
        if du == i64::MAX {
            continue;
        }
        for j in 0..n {
            let w = panel[r * n + j];
            if w == i32::MAX {
                continue;
            }
            let candidate = du + w as i64;
            if candidate < dist[j] {
                dist[j] = candidate;
                changed = true;
            }
        }
    }
    changed
}

/// One Jacobi step of the Hotspot thermal stencil on a `t × t` tile with an
/// explicit one-cell halo (halo cells replicate the edge when absent).
/// `temp`/`power` are `t²`; halos are the four edge strips of the
/// neighboring tiles (length `t`, or empty at grid borders).
#[allow(clippy::too_many_arguments)]
pub fn hotspot_tile(
    t: usize,
    temp: &[f32],
    power: &[f32],
    north: &[f32],
    south: &[f32],
    west: &[f32],
    east: &[f32],
    out: &mut [f32],
) {
    assert_eq!(temp.len(), t * t);
    assert_eq!(out.len(), t * t);
    let at = |x: isize, y: isize| -> f32 {
        if y < 0 {
            if north.is_empty() {
                temp[x as usize]
            } else {
                north[x as usize]
            }
        } else if y >= t as isize {
            if south.is_empty() {
                temp[x as usize + t * (t - 1)]
            } else {
                south[x as usize]
            }
        } else if x < 0 {
            if west.is_empty() {
                temp[t * y as usize]
            } else {
                west[y as usize]
            }
        } else if x >= t as isize {
            if east.is_empty() {
                temp[(t - 1) + t * y as usize]
            } else {
                east[y as usize]
            }
        } else {
            temp[x as usize + t * y as usize]
        }
    };
    const K: f32 = 0.2;
    for y in 0..t {
        for x in 0..t {
            let center = temp[x + t * y];
            let laplacian = at(x as isize - 1, y as isize)
                + at(x as isize + 1, y as isize)
                + at(x as isize, y as isize - 1)
                + at(x as isize, y as isize + 1)
                - 4.0 * center;
            out[x + t * y] = center + K * laplacian + 0.05 * power[x + t * y];
        }
    }
}

/// Accumulates partial squared distances for one `points × attrs` tile
/// (attributes fastest) against the matching attribute block of `k`
/// centroids (`k × attrs`): `dist_acc[r·k + c] += ‖tile[r] − centroid[c]‖²`
/// over this block's attributes. Summing over all attribute blocks yields
/// the full distances — how a blocked out-of-core K-Means/KNN consumes 2-D
/// sub-blocks (§6.2).
pub fn sqdist_tile(tile: &[f32], attrs: usize, centroid_block: &[f32], dist_acc: &mut [f32]) {
    let k = centroid_block.len() / attrs;
    let points = tile.len() / attrs;
    debug_assert_eq!(dist_acc.len(), points * k);
    for r in 0..points {
        let point = &tile[r * attrs..(r + 1) * attrs];
        for c in 0..k {
            let centroid = &centroid_block[c * attrs..(c + 1) * attrs];
            let mut acc = 0.0f32;
            for j in 0..attrs {
                let d = point[j] - centroid[j];
                acc += d * d;
            }
            dist_acc[r * k + c] += acc;
        }
    }
}

/// One Bellman-Ford relaxation over a `rows × cols` weight tile whose rows
/// are nodes `base_row..` and columns nodes `base_col..`. Returns true if
/// any distance improved.
pub fn bellman_ford_tile(
    tile: &[i32],
    cols: usize,
    base_row: usize,
    base_col: usize,
    dist: &mut [i64],
) -> bool {
    let rows = tile.len() / cols;
    let mut changed = false;
    for r in 0..rows {
        let du = dist[base_row + r];
        if du == i64::MAX {
            continue;
        }
        for j in 0..cols {
            let w = tile[r * cols + j];
            if w == i32::MAX {
                continue;
            }
            let candidate = du + w as i64;
            if candidate < dist[base_col + j] {
                dist[base_col + j] = candidate;
                changed = true;
            }
        }
    }
    changed
}

/// One PageRank accumulation over a `rows × cols` link tile:
/// `next[base_col + j] += rank[base_row + r] · tile[r][j]`.
pub fn pagerank_tile(
    tile: &[f32],
    cols: usize,
    base_row: usize,
    base_col: usize,
    rank: &[f32],
    next: &mut [f64],
) {
    let rows = tile.len() / cols;
    for r in 0..rows {
        let share = rank[base_row + r];
        if share == 0.0 {
            continue;
        }
        for j in 0..cols {
            let l = tile[r * cols + j];
            if l != 0.0 {
                next[base_col + j] += (share * l) as f64;
            }
        }
    }
}

/// Assigns each point of a row panel (`rows × d`) to its nearest centroid
/// (`k × d`), accumulating per-cluster sums and counts for the update step.
pub fn kmeans_assign(
    panel: &[f32],
    d: usize,
    centroids: &[f32],
    sums: &mut [f64],
    counts: &mut [u64],
) {
    let k = centroids.len() / d;
    for point in panel.chunks_exact(d) {
        let mut best = 0usize;
        let mut best_dist = f32::INFINITY;
        for (c, centroid) in centroids.chunks_exact(d).enumerate() {
            let dist: f32 = point
                .iter()
                .zip(centroid)
                .map(|(p, q)| (p - q) * (p - q))
                .sum();
            if dist < best_dist {
                best_dist = dist;
                best = c;
            }
        }
        counts[best] += 1;
        for (s, p) in sums[best * d..best * d + d].iter_mut().zip(point) {
            *s += *p as f64;
        }
    }
    let _ = k;
}

/// Finalizes centroids from accumulated sums/counts.
pub fn kmeans_update(sums: &[f64], counts: &[u64], d: usize, centroids: &mut [f32]) {
    for (c, centroid) in centroids.chunks_exact_mut(d).enumerate() {
        if counts[c] == 0 {
            continue;
        }
        for (j, v) in centroid.iter_mut().enumerate() {
            *v = (sums[c * d + j] / counts[c] as f64) as f32;
        }
    }
}

/// Scans a row panel of points for the k nearest to `query`, merging into a
/// running best list of `(distance, index)` sorted ascending.
pub fn knn_scan(
    panel: &[f32],
    d: usize,
    base_index: u64,
    query: &[f32],
    k: usize,
    best: &mut Vec<(f32, u64)>,
) {
    for (r, point) in panel.chunks_exact(d).enumerate() {
        let dist: f32 = point
            .iter()
            .zip(query)
            .map(|(p, q)| (p - q) * (p - q))
            .sum();
        let idx = base_index + r as u64;
        if best.len() < k {
            best.push((dist, idx));
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        } else if dist < {
            #[allow(clippy::expect_used)] // the branch above guarantees best is non-empty
            best.last().expect("non-empty").0
        } {
            best.pop();
            best.push((dist, idx));
            best.sort_by(|a, b| a.0.total_cmp(&b.0).then(a.1.cmp(&b.1)));
        }
    }
}

/// One PageRank accumulation over a panel of link rows (`rows × n`, row `r`
/// = outbound shares of node `base + r`): `next[j] += rank[base+r] · L[r][j]`.
pub fn pagerank_panel(panel: &[f32], n: usize, base: usize, rank: &[f32], next: &mut [f64]) {
    let rows = panel.len() / n;
    for r in 0..rows {
        let share = rank[base + r];
        if share == 0.0 {
            continue;
        }
        for j in 0..n {
            let l = panel[r * n + j];
            if l != 0.0 {
                next[j] += (share * l) as f64;
            }
        }
    }
}

/// Separable 2-D convolution (radius-`r` box filter hori+vert) on a `t × t`
/// tile with edge replication inside the tile.
pub fn conv2d_tile(t: usize, r: usize, tile: &[f32], out: &mut [f32]) {
    assert_eq!(tile.len(), t * t);
    assert_eq!(out.len(), t * t);
    let norm = 1.0 / (2 * r + 1) as f32;
    let mut tmp = vec![0.0f32; t * t];
    for y in 0..t {
        for x in 0..t {
            let mut acc = 0.0;
            for dx in -(r as isize)..=(r as isize) {
                let sx = (x as isize + dx).clamp(0, t as isize - 1) as usize;
                acc += tile[sx + t * y];
            }
            tmp[x + t * y] = acc * norm;
        }
    }
    for y in 0..t {
        for x in 0..t {
            let mut acc = 0.0;
            for dy in -(r as isize)..=(r as isize) {
                let sy = (y as isize + dy).clamp(0, t as isize - 1) as usize;
                acc += tmp[x + t * sy];
            }
            out[x + t * y] = acc * norm;
        }
    }
}

/// Tensor-times-vector over the slowest mode: given slice `s` of a `side³`
/// tensor (a `side²` matrix) and vector weight `v[s]`, accumulates
/// `out += v[s] · slice`.
pub fn ttv_slice(slice: &[f32], weight: f32, out: &mut [f32]) {
    for (o, x) in out.iter_mut().zip(slice) {
        *o += weight * x;
    }
}

/// An order-insensitive checksum over f32 data (stable across architectures
/// that produce identical values in different visit orders).
pub fn checksum_f32(values: &[f32]) -> u64 {
    let mut acc = 0u64;
    for v in values {
        // Quantize to tolerate nothing: runs are bit-deterministic, so a
        // plain bit mix is fine.
        acc = acc.wrapping_add((v.to_bits() as u64).wrapping_mul(0x9E37_79B9_7F4A_7C15));
    }
    acc
}

/// A checksum over integer sequences (BFS levels, SSSP distances, KNN ids).
pub fn checksum_u64(values: impl IntoIterator<Item = u64>) -> u64 {
    let mut acc = 0u64;
    for v in values {
        acc = acc
            .wrapping_add(v.wrapping_mul(0x9E37_79B9_7F4A_7C15))
            .rotate_left(7);
    }
    acc
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn gemm_tile_matches_naive() {
        let t = 8;
        let a: Vec<f32> = (0..t * t).map(|i| (i % 7) as f32 - 3.0).collect();
        let b: Vec<f32> = (0..t * t).map(|i| (i % 5) as f32 - 2.0).collect();
        let mut c = vec![0.0f32; t * t];
        gemm_tile(t, &a, &b, &mut c);
        for i in 0..t {
            for j in 0..t {
                let expect: f32 = (0..t).map(|k| a[k + t * i] * b[j + t * k]).sum();
                assert_eq!(c[j + t * i], expect, "C[{i}][{j}]");
            }
        }
    }

    #[test]
    fn bfs_expand_marks_levels() {
        let row = [0u8, 1, 0, 1];
        let mut levels = [0, u32::MAX, u32::MAX, 2];
        let found = bfs_expand(&row, 0, &mut levels);
        assert_eq!(found, vec![1]);
        assert_eq!(levels, [0, 1, u32::MAX, 2]);
    }

    #[test]
    fn bellman_ford_relaxes() {
        // 3-node line: 0 →(5) 1 →(2) 2.
        let n = 3;
        let inf = i32::MAX;
        let panel = [inf, 5, inf, inf, inf, 2, inf, inf, inf];
        let mut dist = [0i64, i64::MAX, i64::MAX];
        assert!(bellman_ford_panel(&panel, n, 0, &mut dist));
        assert_eq!(dist, [0, 5, 7]);
        assert!(!bellman_ford_panel(&panel, n, 0, &mut dist), "fixpoint");
    }

    #[test]
    fn hotspot_flat_tile_stays_flat() {
        let t = 4;
        let temp = vec![10.0f32; t * t];
        let power = vec![0.0f32; t * t];
        let mut out = vec![0.0f32; t * t];
        hotspot_tile(t, &temp, &power, &[], &[], &[], &[], &mut out);
        assert!(out.iter().all(|&v| (v - 10.0).abs() < 1e-6));
    }

    #[test]
    fn hotspot_uses_halo() {
        let t = 2;
        let temp = vec![0.0f32; 4];
        let power = vec![0.0f32; 4];
        let north = vec![40.0f32; 2];
        let mut out = vec![0.0f32; 4];
        hotspot_tile(t, &temp, &power, &north, &[], &[], &[], &mut out);
        assert!(out[0] > 0.0, "heat flows in from the north halo");
        assert_eq!(out[2], 0.0, "southern row unaffected in one step");
    }

    #[test]
    fn kmeans_assign_and_update() {
        let d = 2;
        // Two obvious clusters around (0,0) and (10,10).
        let panel = [0.0, 0.1, 0.1, 0.0, 10.0, 9.9, 9.9, 10.1];
        let centroids = vec![1.0, 1.0, 9.0, 9.0];
        let mut sums = vec![0.0f64; 4];
        let mut counts = vec![0u64; 2];
        kmeans_assign(&panel, d, &centroids, &mut sums, &mut counts);
        assert_eq!(counts, [2, 2]);
        let mut updated = centroids.clone();
        kmeans_update(&sums, &counts, d, &mut updated);
        assert!((updated[0] - 0.05).abs() < 1e-6);
        assert!((updated[2] - 9.95).abs() < 1e-6);
    }

    #[test]
    fn knn_keeps_k_nearest() {
        let d = 1;
        let panel = [5.0f32, 1.0, 3.0, 9.0];
        let query = [0.0f32];
        let mut best = Vec::new();
        knn_scan(&panel, d, 100, &query, 2, &mut best);
        let ids: Vec<u64> = best.iter().map(|&(_, i)| i).collect();
        assert_eq!(ids, vec![101, 102]);
    }

    #[test]
    fn pagerank_accumulates_shares() {
        let n = 2;
        let panel = [0.0f32, 1.0, 0.5, 0.5];
        let rank = [0.6f32, 0.4];
        let mut next = vec![0.0f64; 2];
        pagerank_panel(&panel, n, 0, &rank, &mut next);
        assert!((next[0] - 0.2).abs() < 1e-6);
        assert!((next[1] - 0.8).abs() < 1e-6);
    }

    #[test]
    fn conv2d_preserves_constants() {
        let t = 8;
        let tile = vec![3.0f32; t * t];
        let mut out = vec![0.0f32; t * t];
        conv2d_tile(t, 2, &tile, &mut out);
        assert!(out.iter().all(|&v| (v - 3.0).abs() < 1e-5));
    }

    #[test]
    fn ttv_weights_slices() {
        let slice = [1.0f32, 2.0, 3.0];
        let mut out = vec![1.0f32; 3];
        ttv_slice(&slice, 2.0, &mut out);
        assert_eq!(out, vec![3.0, 5.0, 7.0]);
    }

    #[test]
    fn sqdist_tiles_compose_to_full_distance() {
        let d = 4;
        let point = [1.0f32, 2.0, 3.0, 4.0];
        let centroid = [0.0f32, 0.0, 1.0, 1.0];
        // Full distance in one tile…
        let mut full = vec![0.0f32; 1];
        sqdist_tile(&point, d, &centroid, &mut full);
        // …equals two half-tiles accumulated.
        let mut halves = vec![0.0f32; 1];
        sqdist_tile(&point[..2], 2, &centroid[..2], &mut halves);
        sqdist_tile(&point[2..], 2, &centroid[2..], &mut halves);
        assert_eq!(full, halves);
        assert_eq!(full[0], 1.0 + 4.0 + 4.0 + 9.0);
    }

    #[test]
    fn bellman_ford_tile_matches_panel() {
        let n = 4;
        let inf = i32::MAX;
        let w: Vec<i32> = vec![
            inf, 3, inf, 9, //
            inf, inf, 2, inf, //
            inf, inf, inf, 1, //
            inf, inf, inf, inf,
        ];
        let mut via_panel = vec![i64::MAX; n];
        via_panel[0] = 0;
        while bellman_ford_panel(&w, n, 0, &mut via_panel) {}
        let mut via_tiles = vec![i64::MAX; n];
        via_tiles[0] = 0;
        loop {
            let mut changed = false;
            for br in 0..2 {
                for bc in 0..2 {
                    let mut tile = Vec::new();
                    for r in 0..2 {
                        for c in 0..2 {
                            tile.push(w[(br * 2 + r) * n + bc * 2 + c]);
                        }
                    }
                    changed |= bellman_ford_tile(&tile, 2, br * 2, bc * 2, &mut via_tiles);
                }
            }
            if !changed {
                break;
            }
        }
        assert_eq!(via_panel, via_tiles);
    }

    #[test]
    fn pagerank_tile_matches_panel() {
        let n = 4;
        let links: Vec<f32> = (0..n * n).map(|i| (i % 3) as f32 * 0.1).collect();
        let rank = [0.1f32, 0.2, 0.3, 0.4];
        let mut via_panel = vec![0.0f64; n];
        pagerank_panel(&links, n, 0, &rank, &mut via_panel);
        let mut via_tiles = vec![0.0f64; n];
        for br in 0..2 {
            for bc in 0..2 {
                let mut tile = Vec::new();
                for r in 0..2 {
                    for c in 0..2 {
                        tile.push(links[(br * 2 + r) * n + bc * 2 + c]);
                    }
                }
                pagerank_tile(&tile, 2, br * 2, bc * 2, &rank, &mut via_tiles);
            }
        }
        for (a, b) in via_panel.iter().zip(&via_tiles) {
            assert!((a - b).abs() < 1e-12);
        }
    }

    #[test]
    fn checksums_detect_changes() {
        let a = checksum_f32(&[1.0, 2.0, 3.0]);
        let b = checksum_f32(&[1.0, 2.0, 3.001]);
        assert_ne!(a, b);
        assert_eq!(a, checksum_f32(&[1.0, 2.0, 3.0]));
        assert_ne!(checksum_u64([1, 2, 3]), checksum_u64([3, 2, 1]));
    }
}
