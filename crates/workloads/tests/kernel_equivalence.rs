//! The blocked / split kernels against the plain loops they replaced.
//!
//! `reference` holds `gemm_tile`, `conv2d_tile` and `hotspot_tile` exactly
//! as the library had them before they were register-blocked and split into
//! interior and border — one scalar step at a time, nothing clever. They
//! live here only, as the executable statement of the functional-kernel
//! contract (DESIGN.md): for every output element the library kernel must
//! perform the same IEEE operations on the same operands in the same order,
//! so every element must be `to_bits()`-equal, signed zeros included.

use nds_workloads::kernels;
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

mod reference {
    pub(crate) fn gemm_tile(t: usize, a: &[f32], b: &[f32], c: &mut [f32]) {
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

    #[allow(clippy::too_many_arguments)]
    pub(crate) fn hotspot_tile(
        t: usize,
        temp: &[f32],
        power: &[f32],
        north: &[f32],
        south: &[f32],
        west: &[f32],
        east: &[f32],
        out: &mut [f32],
    ) {
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

    pub(crate) fn conv2d_tile(t: usize, r: usize, tile: &[f32], out: &mut [f32]) {
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
}

/// Tile sides the properties cover: below, at and across the 2-row / 4-`k`
/// blocking and the stencil borders, odd and even, plus the test scale.
const SIDES: [usize; 7] = [1, 2, 3, 5, 7, 8, 64];

/// `len` finite values with random sign, full 23-bit mantissa and an
/// exponent in `2⁻⁶..2⁶` — the generators' `k · 2⁻²³` grid would make most
/// partial sums exact and hide a reassociation — each replaced by an exact
/// zero with probability `zero_sixteenths / 16`, `0.0` and `-0.0` alternately.
fn values(rng: &mut StdRng, len: usize, zero_sixteenths: u32) -> Vec<f32> {
    (0..len)
        .map(|i| {
            let sign_and_mantissa = rng.gen::<u32>() & 0x807F_FFFF;
            let v = f32::from_bits(sign_and_mantissa | rng.gen_range(121..=133u32) << 23);
            if rng.gen_range(0..16u32) >= zero_sixteenths {
                v
            } else if i % 2 == 0 {
                0.0
            } else {
                -0.0
            }
        })
        .collect()
}

fn assert_bits_equal(what: &str, got: &[f32], want: &[f32]) -> Result<(), TestCaseError> {
    prop_assert_eq!(got.len(), want.len(), "{} length", what);
    for (i, (g, w)) in got.iter().zip(want).enumerate() {
        prop_assert!(
            g.to_bits() == w.to_bits(),
            "{what}: element {i} is {g:?} ({:#010x}), the plain loop gives {w:?} ({:#010x})",
            g.to_bits(),
            w.to_bits()
        );
    }
    Ok(())
}

fn gemm_case(t: usize, seed: u64, zero_sixteenths: u32) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let a = values(&mut rng, t * t, zero_sixteenths);
    let b = values(&mut rng, t * t, 1);
    // `c` starts with `-0.0` entries: adding a skipped `+0.0` product would
    // flip them, so the skip rule shows in the sign bit.
    let mut got = values(&mut rng, t * t, 4);
    let mut want = got.clone();
    kernels::gemm_tile(t, &a, &b, &mut got);
    reference::gemm_tile(t, &a, &b, &mut want);
    assert_bits_equal(&format!("gemm_tile t={t}"), &got, &want)
}

fn conv2d_case(t: usize, r: usize, seed: u64, tmp: &mut Vec<f32>) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let tile = values(&mut rng, t * t, 2);
    let mut got = vec![f32::NAN; t * t];
    let mut want = vec![0.0f32; t * t];
    kernels::conv2d_tile(t, r, &tile, tmp, &mut got);
    reference::conv2d_tile(t, r, &tile, &mut want);
    assert_bits_equal(&format!("conv2d_tile t={t} r={r}"), &got, &want)
}

/// Every subset of the four halos present / empty.
fn hotspot_case(t: usize, seed: u64) -> Result<(), TestCaseError> {
    let mut rng = StdRng::seed_from_u64(seed);
    let temp = values(&mut rng, t * t, 1);
    let power = values(&mut rng, t * t, 1);
    let halos: [Vec<f32>; 4] = std::array::from_fn(|_| values(&mut rng, t, 1));
    for mask in 0..16u32 {
        let [n, s, w, e] = std::array::from_fn(|h| {
            if mask >> h & 1 == 1 {
                &halos[h][..]
            } else {
                &[]
            }
        });
        let mut got = vec![f32::NAN; t * t];
        let mut want = vec![0.0f32; t * t];
        kernels::hotspot_tile(t, &temp, &power, n, s, w, e, &mut got);
        reference::hotspot_tile(t, &temp, &power, n, s, w, e, &mut want);
        assert_bits_equal(&format!("hotspot_tile t={t} halos={mask:04b}"), &got, &want)?;
    }
    Ok(())
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// Dense `a` (every group fused), sparse `a` (groups fall back to one
    /// `k` at a time) and all-zero `a` (everything skipped), for every side.
    #[test]
    fn gemm_tile_matches_the_plain_loop(
        seed in any::<u64>(),
        zero_sixteenths in prop::collection::vec(0u32..=16, SIDES.len()),
    ) {
        for (&t, &zeros) in SIDES.iter().zip(&zero_sixteenths) {
            gemm_case(t, seed, zeros)?;
            gemm_case(t, seed ^ 1, 0)?;
        }
        gemm_case(8, seed, 16)?;
    }

    /// Radii from 0 to past the tile side (no clamp-free column at all), with
    /// one scratch plane carried dirty from call to call.
    #[test]
    fn conv2d_tile_matches_the_plain_loop(
        seed in any::<u64>(),
        radii in prop::collection::vec(0usize..=9, SIDES.len()),
    ) {
        let mut tmp = vec![f32::NAN; 5];
        for (&t, &r) in SIDES.iter().zip(&radii) {
            conv2d_case(t, r, seed, &mut tmp)?;
            conv2d_case(t, t + r, seed, &mut tmp)?;
        }
    }

    #[test]
    fn hotspot_tile_matches_the_plain_loop(seed in any::<u64>()) {
        for t in SIDES {
            hotspot_case(t, seed)?;
        }
    }
}

/// One case of each kernel at the bench tile side, where `gemm_tile`
/// splits across the host's cores when it has more than one; GEMM also
/// with dense `a`, every group fused.
#[test]
fn kernels_match_the_plain_loops_at_t256() {
    gemm_case(256, 21, 1).unwrap();
    gemm_case(256, 24, 0).unwrap();
    conv2d_case(256, 4, 22, &mut Vec::new()).unwrap();
    hotspot_case(256, 23).unwrap();
}
