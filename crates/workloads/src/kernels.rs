//! Reference compute kernels.
//!
//! These are the *functional* kernels the workloads execute on every
//! architecture: plain, deterministic Rust implementations of the operations
//! the paper offloads to GPUs. Their timing comes from the accelerator model
//! (`nds-accel`); their outputs are what the tests validate.
//!
//! The contract (DESIGN.md, "Functional-kernel contract"): a kernel may be
//! blocked, unrolled, split into interior and border, handed scratch or
//! have whole output rows shared out across threads, but every output
//! element must see the same sequence of IEEE operations on the same
//! operands as the plain loop it replaced. `tests/kernel_equivalence.rs`
//! keeps those plain loops as reference models and compares `to_bits()`.

/// Rows of `a` and `c` a thread takes from [`gemm_tile`]'s cursor at a
/// time. Even, so only an odd `t`'s last row runs without a partner.
const CHUNK_ROWS: usize = 16;

/// Multiply-adds (`t³` for one tile) worth a thread of their own. On a
/// 2-core host a scoped spawn + join costs 31–47 µs and one core runs the
/// kernel at 13–14 G multiply-adds per second, so a tile split in two
/// breaks even at `t = 128`, 2²⁰ a part; this is twice that (DESIGN.md
/// "Functional-kernel contract"): tiles of side ≤ 161 never spawn.
const MIN_PART: usize = 1 << 21;

/// `c += a × b` for `t × t` row-major f32 tiles (x fastest: `a[x + t*y]`).
///
/// Element `c[i][j]` accumulates `a[i][k] * b[k][j]` for ascending `k`,
/// skipping every `k` whose `a[i][k]` compares equal to zero (`0.0` and
/// `-0.0`), one rounded multiply and one rounded add per step. The loops
/// are register-blocked — two rows of `c`, four `k` per pass over them —
/// which changes how often `b` and `c` travel, not what is computed.
///
/// The rows are shared out 16 at a time from one cursor
/// ([`nds_core::in_parts`]), claimed by the calling thread and by up to
/// `parts − 1` scoped workers, where `parts` is
/// [`nds_core::parts`] for `t³` multiply-adds. A row's result does not
/// depend on which thread computed it, so the part count moves wall time,
/// never a bit. A worker that cannot be spawned leaves its chunks to the
/// others.
///
/// # Panics
///
/// Panics if any slice is not `t²` long.
pub fn gemm_tile(t: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let parts = nds_core::parts(t.saturating_pow(3), MIN_PART);
    gemm_tile_in_parts(t, a, b, c, parts);
}

/// [`gemm_tile`] on up to `parts` threads, the calling one included.
fn gemm_tile_in_parts(t: usize, a: &[f32], b: &[f32], c: &mut [f32], parts: usize) {
    assert_eq!(a.len(), t * t);
    assert_eq!(b.len(), t * t);
    assert_eq!(c.len(), t * t);
    if t == 0 {
        return;
    }
    let chunk = CHUNK_ROWS * t;
    nds_core::in_parts(parts, a.chunks(chunk).zip(c.chunks_mut(chunk)), |(a, c)| {
        gemm_rows(t, a, b, c);
    });
}

/// `c += a × b` for the rows of `c` in `c` (`c.len() / t` of them), `a`
/// holding the same rows of the left operand.
fn gemm_rows(t: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
    let mut a_pairs = a.chunks_exact(2 * t);
    let mut c_pairs = c.chunks_exact_mut(2 * t);
    for (a_pair, c_pair) in a_pairs.by_ref().zip(c_pairs.by_ref()) {
        let (a0, a1) = a_pair.split_at(t);
        let (c0, c1) = c_pair.split_at_mut(t);
        gemm_row_pair(a0, a1, b, c0, c1);
    }
    // An odd row count: the last row has no partner (both remainders are
    // empty otherwise).
    let c_last = c_pairs.into_remainder();
    for (&aik, brow) in a_pairs.remainder().iter().zip(b.chunks_exact(t)) {
        axpy_nonzero(aik, brow, c_last);
    }
}

/// Two rows of `c += a × b`. A group of four `k` whose eight `a` entries
/// are all non-zero runs fused; a group holding a zero, and the `t % 4`
/// tail, take one skip-checked `k` at a time. Either way every `c` element
/// is updated for ascending `k`.
fn gemm_row_pair(a0: &[f32], a1: &[f32], b: &[f32], c0: &mut [f32], c1: &mut [f32]) {
    let t = c0.len();
    let (x_groups, x_tail) = a0.as_chunks::<4>();
    let (y_groups, y_tail) = a1.as_chunks::<4>();
    let mut b_groups = b.chunks_exact(4 * t);
    for ((x, y), rows) in x_groups.iter().zip(y_groups).zip(b_groups.by_ref()) {
        if x.iter().chain(y).all(|&v| v != 0.0) {
            fused_2x4(c0, c1, rows, *x, *y);
        } else {
            one_k_at_a_time(x, y, rows, c0, c1);
        }
    }
    one_k_at_a_time(x_tail, y_tail, b_groups.remainder(), c0, c1);
}

/// `c0 += Σ x[k]·b[k]`, `c1 += Σ y[k]·b[k]` over the four rows of `b` in
/// `rows`, with both `c` elements held in registers across the four steps:
/// one pass over `c0`/`c1` instead of four, each `b` row read once for both.
///
/// Kept out of line so the `&mut` parameters carry their no-overlap
/// guarantee into the loop and it vectorises without run-time checks.
#[inline(never)]
fn fused_2x4(c0: &mut [f32], c1: &mut [f32], rows: &[f32], x: [f32; 4], y: [f32; 4]) {
    let t = c0.len();
    let c1 = &mut c1[..t];
    let (b0, rest) = rows.split_at(t);
    let (b1, rest) = rest.split_at(t);
    let (b2, b3) = rest.split_at(t);
    let b3 = &b3[..t];
    for j in 0..t {
        let mut u = c0[j];
        let mut v = c1[j];
        u += x[0] * b0[j];
        v += y[0] * b0[j];
        u += x[1] * b1[j];
        v += y[1] * b1[j];
        u += x[2] * b2[j];
        v += y[2] * b2[j];
        u += x[3] * b3[j];
        v += y[3] * b3[j];
        c0[j] = u;
        c1[j] = v;
    }
}

/// The unfused path: for each `k` of the group, `c0 += x[k]·b[k]` and
/// `c1 += y[k]·b[k]`, each skipped when its coefficient is zero.
fn one_k_at_a_time(x: &[f32], y: &[f32], rows: &[f32], c0: &mut [f32], c1: &mut [f32]) {
    for ((&xk, &yk), brow) in x.iter().zip(y).zip(rows.chunks_exact(c0.len())) {
        axpy_nonzero(xk, brow, c0);
        axpy_nonzero(yk, brow, c1);
    }
}

/// `y += alpha · x`, skipped when `alpha` compares equal to zero.
#[inline]
fn axpy_nonzero(alpha: f32, x: &[f32], y: &mut [f32]) {
    if alpha == 0.0 {
        return;
    }
    for (y, x) in y.iter_mut().zip(x) {
        *y += alpha * x;
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
///
/// Each cell computes `west + east + north + south − 4·center` left to
/// right, then `center + 0.2·laplacian + 0.05·power`. Rows above and below
/// are whole slices (a neighbor row, a halo, or the edge row replicated),
/// so only the first and last column of a row need the west / east halo;
/// the columns between them run branch-free.
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
    assert_eq!(power.len(), t * t);
    assert_eq!(out.len(), t * t);
    if t == 0 {
        return;
    }
    const K: f32 = 0.2;
    let cell = |center: f32, w: f32, e: f32, n: f32, s: f32, p: f32| -> f32 {
        let laplacian = w + e + n + s - 4.0 * center;
        center + K * laplacian + 0.05 * p
    };
    let row = |y: usize| &temp[t * y..t * y + t];
    let last = t - 1;
    let rows = out.chunks_exact_mut(t).zip(power.chunks_exact(t));
    for (y, (orow, prow)) in rows.enumerate() {
        let mid = row(y);
        let up = if y > 0 {
            row(y - 1)
        } else if north.is_empty() {
            mid
        } else {
            &north[..t]
        };
        let down = if y < last {
            row(y + 1)
        } else if south.is_empty() {
            mid
        } else {
            &south[..t]
        };
        let w_halo = if west.is_empty() { mid[0] } else { west[y] };
        let e_halo = if east.is_empty() { mid[last] } else { east[y] };
        let e_of_first = if last == 0 { e_halo } else { mid[1] };
        orow[0] = cell(mid[0], w_halo, e_of_first, up[0], down[0], prow[0]);
        if last == 0 {
            continue;
        }
        // Columns 1..last: every neighbor is inside `mid`, `up` or `down`.
        let inner = &mut orow[1..last];
        let len = inner.len();
        let (w, c, e) = (&mid[..len], &mid[1..last], &mid[2..]);
        let (n, s, p) = (&up[1..last], &down[1..last], &prow[1..last]);
        for x in 0..len {
            inner[x] = cell(c[x], w[x], e[x], n[x], s[x], p[x]);
        }
        orow[last] = cell(
            mid[last],
            mid[last - 1],
            e_halo,
            up[last],
            down[last],
            prow[last],
        );
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
/// tile with edge replication inside the tile. `tmp` is the plane between
/// the two passes — caller-kept scratch, resized here, contents ignored.
///
/// Each pass sums its `2r + 1` taps in ascending offset order starting from
/// `0.0`, then scales by `1 / (2r + 1)`. Columns at least `r` from both
/// tile edges never clamp, so the horizontal pass adds whole shifted row
/// segments there; the vertical pass clamps a *row* index only, so it adds
/// whole rows everywhere.
pub fn conv2d_tile(t: usize, r: usize, tile: &[f32], tmp: &mut Vec<f32>, out: &mut [f32]) {
    assert_eq!(tile.len(), t * t);
    assert_eq!(out.len(), t * t);
    if t == 0 {
        return;
    }
    let norm = 1.0 / (2 * r + 1) as f32;
    let taps = 2 * r + 1;
    let clamped = |centre: usize, tap: usize| (centre + tap).saturating_sub(r).min(t - 1);
    // Columns `lo..hi` are clamp-free (empty when `t ≤ 2r`).
    let lo = r.min(t);
    let hi = (t - lo).max(lo);
    tmp.resize(t * t, 0.0);
    for (src, dst) in tile.chunks_exact(t).zip(tmp.chunks_exact_mut(t)) {
        for x in (0..lo).chain(hi..t) {
            let mut acc = 0.0;
            for tap in 0..taps {
                acc += src[clamped(x, tap)];
            }
            dst[x] = acc * norm;
        }
        let interior = &mut dst[lo..hi];
        if interior.is_empty() {
            continue;
        }
        interior.fill(0.0);
        for tap in 0..taps {
            for (acc, v) in interior.iter_mut().zip(&src[tap..]) {
                *acc += *v;
            }
        }
        for acc in interior {
            *acc *= norm;
        }
    }
    for (y, orow) in out.chunks_exact_mut(t).enumerate() {
        orow.fill(0.0);
        for tap in 0..taps {
            let sy = clamped(y, tap);
            for (acc, v) in orow.iter_mut().zip(&tmp[t * sy..t * sy + t]) {
                *acc += *v;
            }
        }
        for acc in orow {
            *acc *= norm;
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

    /// `len` values with full mantissas, every `zero_every`-th an exact
    /// zero, `0.0` and `-0.0` alternately (`0`: none, `1`: all).
    fn tile_values(len: usize, salt: u32, zero_every: usize) -> Vec<f32> {
        (0..len)
            .map(|i| {
                if zero_every != 0 && i.is_multiple_of(zero_every) {
                    return if (i / zero_every).is_multiple_of(2) {
                        0.0
                    } else {
                        -0.0
                    };
                }
                let h = (i as u32 ^ salt)
                    .wrapping_mul(0x9E37_79B9)
                    .rotate_left(13)
                    .wrapping_mul(0x85EB_CA6B);
                f32::from_bits(h & 0x807F_FFFF | (121 + h % 13) << 23)
            })
            .collect()
    }

    fn bits(values: &[f32]) -> Vec<u32> {
        values.iter().map(|v| v.to_bits()).collect()
    }

    #[test]
    fn gemm_tile_bits_do_not_depend_on_the_part_count() {
        // Odd sides, sides off the 16-row chunk grid, and one chunk (t = 7)
        // or three (t = 33, 40) against eight parts.
        for t in [1, 7, 16, 33, 40] {
            let b = tile_values(t * t, 2, 5);
            // `c` holds `-0.0` entries, which a skipped zero keeps.
            let c = tile_values(t * t, 3, 4);
            // Dense `a` (every group fused), sparse (some groups, or all,
            // one `k` at a time) and all-zero.
            for zero_every in [0, 11, 3, 1] {
                let a = tile_values(t * t, 1, zero_every);
                let mut want = c.clone();
                gemm_tile_in_parts(t, &a, &b, &mut want, 1);
                for parts in [2, 3, 8] {
                    let mut got = c.clone();
                    gemm_tile_in_parts(t, &a, &b, &mut got, parts);
                    assert_eq!(
                        bits(&got),
                        bits(&want),
                        "t = {t}, a zero every {zero_every}: {parts} parts differ from one"
                    );
                }
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
    fn kmeans_update_averages_each_cluster_and_keeps_an_empty_one() {
        let d = 2;
        // Cluster 0 took (0, 0.1) and (0.1, 0); cluster 1 took no point.
        let sums = [0.1, 0.1, 0.0, 0.0];
        let counts = [2, 0];
        let mut centroids = [1.0, 1.0, 9.0, 9.0];
        kmeans_update(&sums, &counts, d, &mut centroids);
        assert!((centroids[0] - 0.05).abs() < 1e-6);
        assert!((centroids[1] - 0.05).abs() < 1e-6);
        assert_eq!(&centroids[2..], [9.0, 9.0]);
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
        conv2d_tile(t, 2, &tile, &mut Vec::new(), &mut out);
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
