//! Heap-footprint ceilings of the workload layer.
//!
//! A byte-counting `#[global_allocator]` (per-thread counters, so the
//! harness's parallel test threads do not see each other — the pattern of
//! `crates/system/tests/alloc_ceiling.rs`) pins two things the fig10 host
//! cost depends on:
//!
//! - **TC and TTV generate only the slab they read.** Their tensors are the
//!   first `d` slices of a `w³` cube; materializing the cube and truncating
//!   it peaks at `w³ · 4` bytes per tensor — 8 MiB
//!   at test scale, 512 MiB at bench scale — against a `w² · d · 4` slab of
//!   256 KiB / 16 MiB. The peak-live ceilings below are a small multiple of
//!   the slab and far under one cube.
//! - **The streaming closures decode into reused scratch.** GEMM streams
//!   `(n/t)³` blocks of two tiles; a fresh `Vec<f32>` per decoded tile is
//!   `2 · t² · 4 · (n/t)³` bytes of allocation over the run on top of the
//!   inputs — eight matrices' worth at test scale — and the total-allocated
//!   ceiling leaves room for two.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nds_system::{BaselineSystem, SystemConfig};
use nds_workloads::{Gemm, Tc, Ttv, Workload, WorkloadParams};

#[derive(Clone, Copy, Default)]
struct Bytes {
    /// Bytes currently allocated.
    live: u64,
    /// Highest `live` seen.
    peak: u64,
    /// Bytes ever requested (a `realloc` counts its growth).
    total: u64,
}

thread_local! {
    static BYTES: Cell<Bytes> = const { Cell::new(Bytes { live: 0, peak: 0, total: 0 }) };
}

fn grow(by: usize) {
    let _ = BYTES.try_with(|b| {
        let mut v = b.get();
        v.live += by as u64;
        v.total += by as u64;
        v.peak = v.peak.max(v.live);
        b.set(v);
    });
}

fn shrink(by: usize) {
    let _ = BYTES.try_with(|b| {
        let mut v = b.get();
        // Memory handed over from another thread may be freed here.
        v.live = v.live.saturating_sub(by as u64);
        b.set(v);
    });
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is updating thread-local counters, which neither allocates (const
// initializer, no destructor) nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        grow(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        shrink(layout.size());
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        shrink(layout.size());
        grow(new_size);
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// `(peak live bytes above the starting level, total bytes allocated)` of
/// `f` on this thread.
fn footprint(f: impl FnOnce()) -> (u64, u64) {
    let before = BYTES.with(|b| {
        let mut v = b.get();
        v.peak = v.live;
        b.set(v);
        v
    });
    f();
    let after = BYTES.with(Cell::get);
    (after.peak - before.live, after.total - before.total)
}

const MIB: u64 = 1 << 20;

/// The footprint of `workload.run` on a fresh small baseline system.
fn run_footprint(workload: &dyn Workload) -> (u64, u64) {
    let mut sys = BaselineSystem::new(SystemConfig::small_test());
    let reference = workload.reference_checksum();
    let mut checksum = 0;
    let measured = footprint(|| checksum = workload.run(&mut sys).unwrap().checksum);
    assert_eq!(checksum, reference);
    measured
}

#[test]
fn tc_and_ttv_never_hold_the_cube_behind_their_slab() {
    let params = WorkloadParams::tiny_test(5);
    // tiny_test: tile 64 → 128-wide slices; TC reads 4 of them, TTV 16.
    let w = 2 * params.tile;
    let cube = w * w * w * 4;
    assert_eq!(cube, 8 * MIB);

    let tc_slab = w * w * 4 * 4;
    let (tc_peak, _) = run_footprint(&Tc::new(params));
    // Two slabs, one byte image in flight, the stored copies, block lists.
    assert!(
        tc_peak <= 8 * tc_slab,
        "TC peaked at {tc_peak} B live; its slab is {tc_slab} B"
    );
    assert!(8 * tc_slab < cube / 2);

    let ttv_slab = w * w * 16 * 4;
    let (ttv_peak, _) = run_footprint(&Ttv::new(params));
    assert!(
        ttv_peak <= 5 * ttv_slab,
        "TTV peaked at {ttv_peak} B live; its slab is {ttv_slab} B"
    );
    assert!(5 * ttv_slab < cube);
}

#[test]
fn gemm_decodes_into_reused_scratch() {
    let params = WorkloadParams::tiny_test(6);
    let matrix = params.n * params.n * 4;
    let decode_per_block = 2 * params.tile * params.tile * 4;
    let decodes = params.tiles_per_side().pow(3) * decode_per_block;
    assert_eq!(decodes, 8 * matrix, "64 blocks × 32 KiB");
    let (_, total) = run_footprint(&Gemm::new(params));
    // What the run has to allocate is about ten matrices: A and B, their
    // byte images, the stored A, B and C, the C tiles and their write-back.
    // A `Vec<f32>` per decoded tile would add eight more.
    assert!(
        total <= 12 * matrix,
        "GEMM allocated {total} B over the run ({} matrices)",
        total / matrix
    );
}
