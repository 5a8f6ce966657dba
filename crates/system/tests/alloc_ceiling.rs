//! Heap-allocation ceilings of the steady-state command path.
//!
//! A counting `#[global_allocator]` (per-thread counters, so the harness's
//! parallel test threads do not see each other) measures how many heap
//! allocations one front-end command performs once every reused buffer has
//! reached its size. Counts are deterministic — the simulator is — so the
//! ceilings are exact pins, with a little headroom only where a `Vec`'s
//! amortized growth (the cluster's text journal) can land inside the
//! measured window.
//!
//! Before the request-scoped scratch (PR 15) these same four measurements
//! read **21** allocations for the 2 KiB `HardwareNds::read_into` on a
//! plan-cache hit, **64** on a miss, **28** for the steady-state 2 KiB
//! overwrite, and **352 for the 16 device sub-ops** of the sharded
//! `NdsCluster` read (22 each); they now read 0, 13, 4 and 0 (plus the odd
//! growth step of the cluster journal). Since PR 25 that cluster read is
//! two N-D sub-ops, not sixteen flat strips.

// Test helpers outside #[test] fns aren't covered by allow-unwrap-in-tests.
#![allow(clippy::unwrap_used, clippy::expect_used)]

use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

use nds_core::{ElementType, Shape};
use nds_system::{
    BaselineSystem, ClusterConfig, HardwareNds, NdsCluster, SoftwareNds, StorageFrontEnd,
    SystemConfig,
};

thread_local! {
    static ALLOCATIONS: Cell<u64> = const { Cell::new(0) };
}

struct Counting;

// SAFETY: defers every operation to `System` unchanged; the only addition
// is bumping a thread-local counter, which neither allocates (const
// initializer, no destructor) nor touches the memory being managed.
unsafe impl GlobalAlloc for Counting {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        let _ = ALLOCATIONS.try_with(|n| n.set(n.get() + 1));
        // SAFETY: `ptr` came from `System` through this allocator.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static GLOBAL: Counting = Counting;

/// Heap allocations (and reallocations) `f` performs on this thread.
fn allocations(f: impl FnOnce()) -> u64 {
    let before = ALLOCATIONS.with(Cell::get);
    f();
    ALLOCATIONS.with(Cell::get) - before
}

/// A 128 × 128 f32 dataset, fully written with non-zero data; 2 KiB
/// requests are its 32 × 16 tiles (four 512-byte pages each).
const SIDE: u64 = 128;
const TILE: [u64; 2] = [32, 16];

fn payload(len: usize, salt: u8) -> Vec<u8> {
    (0..len).map(|i| (i % 251) as u8 ^ salt | 1).collect()
}

fn filled<S: StorageFrontEnd>(mut sys: S) -> (S, nds_system::DatasetId, Shape) {
    let shape = Shape::new([SIDE, SIDE]);
    let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
    let data = payload((SIDE * SIDE * 4) as usize, 0);
    sys.write(id, &shape, &[0, 0], &[SIDE, SIDE], &data)
        .unwrap();
    (sys, id, shape)
}

#[test]
fn hardware_read_on_a_plan_cache_hit_allocates_nothing() {
    let (mut sys, id, shape) = filled(HardwareNds::new(SystemConfig::small_test()));
    let mut buf = Vec::new();
    // Warm-up: the plan is cached, every scratch buffer reaches its size.
    for _ in 0..2 {
        sys.read_into(id, &shape, &[1, 2], &TILE, &mut buf).unwrap();
    }
    let hits = sys.stl().plan_cache().hits();
    let n = allocations(|| {
        sys.read_into(id, &shape, &[1, 2], &TILE, &mut buf).unwrap();
    });
    assert_eq!(buf.len(), 2048);
    assert_eq!(sys.stl().plan_cache().hits(), hits + 1, "measured a hit");
    assert_eq!(n, 0, "a warmed 2 KiB read on a plan-cache hit allocated");
}

/// A hit is a hit whoever cached the plan: the same tile shape at another
/// block coordinate of the dataset, and in a different dataset of the same
/// geometry, is served from the one cached plan — moved, not cloned.
#[test]
fn hardware_read_of_a_relocated_or_shared_plan_allocates_nothing() {
    let (mut sys, id, shape) = filled(HardwareNds::new(SystemConfig::small_test()));
    let twin = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
    let data = payload((SIDE * SIDE * 4) as usize, 0x11);
    sys.write(twin, &shape, &[0, 0], &[SIDE, SIDE], &data)
        .unwrap();
    let mut buf = Vec::new();
    // Warm-up on one tile of one dataset: block (1, 1), starting at its origin.
    for _ in 0..2 {
        sys.read_into(id, &shape, &[1, 2], &TILE, &mut buf).unwrap();
    }
    let (hits, misses) = (
        sys.stl().plan_cache().hits(),
        sys.stl().plan_cache().misses(),
    );
    let elsewhere = allocations(|| {
        sys.read_into(id, &shape, &[3, 6], &TILE, &mut buf).unwrap(); // block (3, 3)
    });
    assert_eq!(buf.len(), 2048);
    let other_space = allocations(|| {
        sys.read_into(twin, &shape, &[2, 4], &TILE, &mut buf)
            .unwrap(); // block (2, 2) of the twin
    });
    assert_eq!(buf.len(), 2048);
    assert_eq!(sys.stl().plan_cache().hits(), hits + 2, "measured two hits");
    assert_eq!(sys.stl().plan_cache().misses(), misses);
    assert_eq!(elsewhere, 0, "the same tile at another block allocated");
    assert_eq!(
        other_space, 0,
        "a twin dataset's read of a cached plan allocated"
    );
}

/// Allocations of a warmed read of the whole dataset: 16 building blocks of
/// 8 units each, so the plan carries a span list and the STL's resolved-unit
/// scratch holds 128 units.
fn warmed_whole_dataset_read<S: StorageFrontEnd>(sys: S) -> u64 {
    let (mut sys, id, shape) = filled(sys);
    let mut buf = Vec::new();
    for _ in 0..2 {
        sys.read_into(id, &shape, &[0, 0], &[SIDE, SIDE], &mut buf)
            .unwrap();
    }
    let n = allocations(|| {
        sys.read_into(id, &shape, &[0, 0], &[SIDE, SIDE], &mut buf)
            .unwrap();
    });
    assert_eq!(buf, payload((SIDE * SIDE * 4) as usize, 0));
    n
}

#[test]
fn warmed_multi_block_reads_allocate_nothing() {
    let config = SystemConfig::small_test;
    assert_eq!(warmed_whole_dataset_read(HardwareNds::new(config())), 0);
    assert_eq!(warmed_whole_dataset_read(SoftwareNds::new(config())), 0);
    assert_eq!(warmed_whole_dataset_read(BaselineSystem::new(config())), 0);
}

/// A warmed 2.5 MiB hardware-NDS read: two minimum parts, so on a
/// multi-core host the assembly gathers its pieces and copies the second
/// part on a scoped worker. What the calling thread allocates for that is
/// the pieces' list, the parts' slots and one spawn; under a one-CPU mask
/// (`scripts/check.sh` runs this again under one) the read is one part and
/// allocates nothing.
#[test]
fn warmed_multi_part_read_stays_under_its_ceiling() {
    let mut sys = HardwareNds::new(SystemConfig::small_test());
    let shape = Shape::new([1024, 640]);
    let id = sys.create_dataset(shape.clone(), ElementType::F32).unwrap();
    let data = payload(1024 * 640 * 4, 0x22);
    sys.write(id, &shape, &[0, 0], &[1024, 640], &data).unwrap();
    let mut buf = Vec::new();
    for _ in 0..2 {
        sys.read_into(id, &shape, &[0, 0], &[1024, 640], &mut buf)
            .unwrap();
    }
    let n = allocations(|| {
        sys.read_into(id, &shape, &[0, 0], &[1024, 640], &mut buf)
            .unwrap();
    });
    assert!(buf == data, "the multi-part read returned other bytes");
    // 20 480 pieces (128-byte row segments of one block): the list grows 14
    // times on its way there; one for the parts' slots; four for the scope
    // and its one worker, six while the test harness captures output, which
    // a spawned thread inherits. 21 on any host with two cores or more
    // (2.5 MiB is two parts at most); 0 on one.
    assert!(n <= 21, "a warmed 2.5 MiB read allocated {n} times");
}

#[test]
fn hardware_read_on_a_plan_cache_miss_stays_under_its_ceiling() {
    let (mut sys, id, shape) = filled(HardwareNds::new(SystemConfig::small_test()));
    let mut buf = Vec::new();
    sys.read_into(id, &shape, &[0, 0], &TILE, &mut buf).unwrap();
    let misses = sys.stl().plan_cache().misses();
    let n = allocations(|| {
        sys.read_into(id, &shape, &[2, 5], &TILE, &mut buf).unwrap();
    });
    assert_eq!(
        sys.stl().plan_cache().misses(),
        misses + 1,
        "measured a miss"
    );
    // The new plan itself (its `Arc`, block list, one coordinate and one
    // grown-then-merged segment list per covered block), its cache entry
    // and key, and the translator's per-call region and grid tables: 13.
    assert!(
        n <= 16,
        "a 2 KiB read on a plan-cache miss allocated {n} times"
    );
}

#[test]
fn hardware_steady_state_write_stays_under_its_ceiling() {
    let (mut sys, id, shape) = filled(HardwareNds::new(SystemConfig::small_test()));
    let data = payload(2048, 0x40);
    for _ in 0..2 {
        sys.write(id, &shape, &[3, 1], &TILE, &data).unwrap();
    }
    let n = allocations(|| {
        sys.write(id, &shape, &[3, 1], &TILE, &data).unwrap();
    });
    // One page image per programmed page (4) — the flash store owns them —
    // and otherwise only the odd growth step of the handle table.
    assert!(n <= 6, "a steady-state 2 KiB overwrite allocated {n} times");
}

#[test]
fn cluster_sub_op_stays_under_its_ceiling() {
    // Four devices, two replicas, 8-row shards: a 32 × 16 tile at rows
    // 32..48 spans two shards, and is one 32 × 8 partition of each.
    let config = ClusterConfig::new(4, 2).with_shard_rows(8).with_seed(7);
    let cluster = NdsCluster::new(config, |_| HardwareNds::new(SystemConfig::small_test()));
    let (mut sys, id, shape) = filled(cluster);
    let mut buf = Vec::new();
    for _ in 0..2 {
        sys.read_into(id, &shape, &[1, 2], &TILE, &mut buf).unwrap();
    }
    let before = sys.stats().get("cluster.read_subops");
    let n = allocations(|| {
        sys.read_into(id, &shape, &[1, 2], &TILE, &mut buf).unwrap();
    });
    let sub_ops = sys.stats().get("cluster.read_subops") - before;
    assert_eq!(sub_ops, 2, "one piece per touched shard");
    // Every sub-op is a plan-cache hit on its device by now: what is left
    // is the `stats()` snapshots above (outside the window) and at most a
    // growth step of the cluster's text journal.
    assert!(
        n <= 2,
        "{sub_ops} warmed cluster sub-ops allocated {n} times in total"
    );
}
