//! Golden checksums, captured at commit 6d42ad4 — the parent of the PR that
//! blocked `gemm_tile`, split `conv2d_tile` / `hotspot_tile` into interior
//! and border, and made tensor generation slab-only.
//!
//! `run.checksum == reference_checksum()` (the end-to-end suite) proves the
//! streamed run and the in-memory reference agree with *each other*; both
//! call the same kernels, so a kernel rewrite that moved a bit would move
//! both sides and still pass. These constants pin both to what the scalar
//! loops produced yesterday. They change only when a generator or a
//! kernel's per-element operation sequence changes on purpose.

use nds_workloads::{all_workloads, data, kernels, WorkloadParams};

const SEEDS: [u64; 2] = [1, 0x4E44_5321];

/// `reference_checksum()` of the ten Table 1 workloads at
/// `WorkloadParams::tiny_test(seed)`, in `all_workloads` order, per seed.
const REFERENCE: [[u64; 10]; 2] = [
    [
        567743355365011057,
        16905583644667724054,
        1550456066265018698,
        13871902449245255926,
        6003977428055656211,
        6103285586312996987,
        5189222918557643827,
        2401563972070030505,
        8508447610497896854,
        14151353074456065024,
    ],
    [
        8511871709043951510,
        6965306622860774427,
        1202243217633411319,
        14119636638054049702,
        1272465317193626603,
        12809384316405762145,
        9588226983481033984,
        603974098247871102,
        12195760822142539209,
        15980269124887147725,
    ],
];

const GEMM_T256: u64 = 4353975814516618504;
const CONV2D_T256: u64 = 4494372384959742048;
const HOTSPOT_T256: u64 = 2355319227777311385;

#[test]
fn reference_checksums_equal_the_parent_commits() {
    for (seed, expected) in SEEDS.iter().zip(REFERENCE) {
        let all = all_workloads(WorkloadParams::tiny_test(*seed));
        let got: Vec<u64> = all.iter().map(|w| w.reference_checksum()).collect();
        let names: Vec<_> = all.iter().map(|w| w.name()).collect();
        assert_eq!(got, expected, "seed {seed:#x}, workloads {names:?}");
    }
}

/// A `256²` matrix in `[-1, 1)` with every seventh element an exact zero
/// (alternating `0.0` / `-0.0`), so `gemm_tile`'s skip rule is exercised.
fn sparse_matrix(seed: u64) -> Vec<f32> {
    let mut m = data::matrix_f32(256, 256, seed);
    for (i, v) in m.iter_mut().enumerate().filter(|(i, _)| i % 7 == 0) {
        *v = if i % 2 == 0 { 0.0 } else { -0.0 };
    }
    m
}

#[test]
fn direct_kernel_calls_at_t256_equal_the_parent_commits() {
    let t = 256;

    let a = sparse_matrix(11);
    let b = data::matrix_f32(256, 256, 12);
    let mut c = data::matrix_f32(256, 256, 13);
    kernels::gemm_tile(t, &a, &b, &mut c);
    assert_eq!(kernels::checksum_f32(&c), GEMM_T256, "gemm_tile");

    let image = data::matrix_f32(256, 256, 14);
    let mut out = vec![0.0f32; t * t];
    kernels::conv2d_tile(t, 4, &image, &mut Vec::new(), &mut out);
    assert_eq!(kernels::checksum_f32(&out), CONV2D_T256, "conv2d_tile");

    let temp: Vec<f32> = data::matrix_f32(256, 256, 15)
        .iter()
        .map(|v| 40.0 + 10.0 * v)
        .collect();
    let power: Vec<f32> = data::matrix_f32(256, 256, 16)
        .iter()
        .map(|v| v.abs())
        .collect();
    let halo = |seed| -> Vec<f32> {
        data::matrix_f32(256, 1, seed)
            .iter()
            .map(|v| 40.0 + 10.0 * v)
            .collect()
    };
    // North and east present, south and west at the grid border.
    kernels::hotspot_tile(t, &temp, &power, &halo(17), &[], &[], &halo(18), &mut out);
    assert_eq!(kernels::checksum_f32(&out), HOTSPOT_T256, "hotspot_tile");
}
