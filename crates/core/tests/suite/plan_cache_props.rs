//! Property-based equivalence tests for the translation-plan cache.
//!
//! The plan cache is a pure wall-clock optimization: translation depends only
//! on space geometry (shape, block shape, view, coordinate, sub-dims), never
//! on allocation state or on which space is asked, and is periodic in the
//! building-block grid — so a memoized plan, moved back by the request's
//! block base, must be *identical* to a freshly computed one whichever
//! space or block first cached it, and every observable output of the STL —
//! payload bytes, [`AccessReport`]s, [`WriteReport`]s — must be bit-identical
//! whether the cache is enabled or disabled. These properties back the
//! "modeled time untouched" invariant the simulator relies on.
//!
//! The cache's own policy is pinned too: [`StampScanCache`] below is the
//! stamp-and-scan LRU the cache used to be, kept as a reference model, and
//! the `O(1)` list-based [`PlanCache`] must agree with it lookup for lookup
//! — which is what keeps `stl.plan_cache.{hits,misses}` in every committed
//! artifact where they were.
//!
//! [`AccessReport`]: nds_core::AccessReport
//! [`WriteReport`]: nds_core::WriteReport

use std::collections::BTreeMap;

use proptest::prelude::*;

use nds_core::testing::FlakyBackend;
use nds_core::translator::Translation;
use nds_core::{
    BlockShape, DeviceSpec, ElementType, GeometryClass, MemBackend, NdsError, PlanCache, Region,
    Shape, Stl, StlConfig,
};

use crate::strategies::{shape_strategy, spec};

/// An aligned partition of `shape`: per dim, a sub-extent dividing the dim
/// and a partition coordinate inside the resulting grid.
fn partition_of(shape: &Shape) -> impl Strategy<Value = (Vec<u64>, Vec<u64>)> {
    let dims: Vec<u64> = shape.dims().to_vec();
    let per_dim: Vec<_> = dims
        .iter()
        .map(|&d| {
            let divs: Vec<u64> = (1..=d).filter(|s| d % s == 0).collect();
            (0usize..divs.len()).prop_flat_map(move |i| {
                let sub = divs[i];
                (Just(sub), 0..d / sub)
            })
        })
        .collect();
    per_dim.prop_map(|pairs| {
        let (sub, coord): (Vec<u64>, Vec<u64>) = pairs.into_iter().unzip();
        (sub, coord)
    })
}

fn stl_with_capacity(seed: u64, capacity: usize) -> Stl<MemBackend> {
    let backend = MemBackend::new(spec(), 65536);
    Stl::new(
        backend,
        StlConfig {
            seed,
            plan_cache_capacity: capacity,
            ..StlConfig::default()
        },
    )
}

/// `(geometry class, view, origin, extent)`, owned.
type Key = (GeometryClass, Shape, Vec<u64>, Vec<u64>);

/// The reference model: every entry carries the stamp of its last touch and
/// a miss at capacity scans all of them for the smallest. `O(capacity)` per
/// eviction and three allocations per lookup — trivially LRU, which is the
/// point.
struct StampScanCache {
    capacity: usize,
    entries: BTreeMap<Key, u64>,
    stamp: u64,
    hits: u64,
    misses: u64,
}

impl StampScanCache {
    fn new(capacity: usize) -> Self {
        StampScanCache {
            capacity,
            entries: BTreeMap::new(),
            stamp: 0,
            hits: 0,
            misses: 0,
        }
    }

    /// One lookup; `translates` is whether translation succeeds on a miss.
    /// Returns whether it hit.
    fn lookup(&mut self, key: &Key, translates: bool) -> bool {
        if self.capacity == 0 {
            self.misses += 1;
            return false;
        }
        self.stamp += 1;
        if let Some(last_used) = self.entries.get_mut(key) {
            *last_used = self.stamp;
            self.hits += 1;
            return true;
        }
        self.misses += 1;
        if !translates {
            return false;
        }
        if self.entries.len() >= self.capacity {
            let victim = self
                .entries
                .iter()
                .min_by_key(|(_, last_used)| **last_used)
                .map(|(key, _)| key.clone());
            if let Some(victim) = victim {
                self.entries.remove(&victim);
            }
        }
        self.entries.insert(key.clone(), self.stamp);
        false
    }

    fn clear(&mut self) {
        self.entries.clear();
    }
}

/// Keys the streams draw from: 300 distinct requests over three geometry
/// classes and a 1-D and a 2-D view, so capacity 128 evicts and the small
/// ones thrash.
const KEYS: usize = 300;

fn key_of(classes: &[GeometryClass; 3], k: usize) -> Key {
    let class = classes[k % 3];
    let n = k as u64 / 6;
    if (k / 3).is_multiple_of(2) {
        (class, Shape::new([64]), vec![n], vec![1])
    } else {
        (class, Shape::new([8, 8]), vec![n % 8, n / 8], vec![1, 1])
    }
}

/// Every eleventh key's translation fails: an error is a miss that caches
/// nothing.
fn translates(k: usize) -> bool {
    !k.is_multiple_of(11)
}

#[derive(Debug, Clone)]
enum CacheOp {
    Lookup(usize),
    Clear,
}

/// Six in thirteen ops look up one of a hot dozen keys (so every capacity
/// sees hits as well as evictions), six any key, one clears.
fn cache_op() -> impl Strategy<Value = CacheOp> {
    (0u32..13, 0usize..KEYS).prop_map(|(kind, k)| match kind {
        0..=5 => CacheOp::Lookup(k % 12),
        6..=11 => CacheOp::Lookup(k),
        _ => CacheOp::Clear,
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(48))]

    /// The list-based cache and the stamp-scan reference agree on every
    /// lookup's outcome, on the resident key set and on `len()` after every
    /// step, for every capacity class (disabled, degenerate, tiny, odd, the
    /// default) under interleaved clears and failing translations.
    #[test]
    fn list_lru_matches_the_stamp_scan_reference(
        ops in prop::collection::vec(cache_op(), 1..600),
    ) {
        for capacity in [0usize, 1, 2, 7, 128] {
            let mut cache = PlanCache::new(capacity);
            let classes = [4u64, 8, 16].map(|side| {
                cache.class_of(&Shape::new([64]), &BlockShape::custom([side], 4, 64))
            });
            let keys: Vec<Key> = (0..KEYS).map(|k| key_of(&classes, k)).collect();
            let mut model = StampScanCache::new(capacity);
            for (step, op) in ops.iter().enumerate() {
                match *op {
                    CacheOp::Lookup(k) => {
                        let (class, view, origin, extent) = &keys[k];
                        let hits_before = cache.hits();
                        let got = cache.get_or_translate(*class, view, origin, extent, || {
                            if translates(k) {
                                Ok(Translation { blocks: Vec::new(), total_bytes: k as u64, spans: Vec::new(), unit_bytes: 1 })
                            } else {
                                Err(k)
                            }
                        });
                        let model_hit = model.lookup(&keys[k], translates(k));
                        prop_assert_eq!(
                            cache.hits() > hits_before, model_hit,
                            "capacity {} step {}: hit/miss diverges on key {}", capacity, step, k
                        );
                        match got {
                            Ok(plan) => prop_assert_eq!(plan.total_bytes, k as u64),
                            Err(e) => prop_assert!(!model_hit && e == k),
                        }
                    }
                    CacheOp::Clear => {
                        cache.clear();
                        model.clear();
                    }
                }
                prop_assert_eq!(cache.len(), model.entries.len());
                prop_assert_eq!((cache.hits(), cache.misses()), (model.hits, model.misses));
                for key in &keys {
                    prop_assert_eq!(
                        cache.is_cached(key.0, &key.1, &key.2, &key.3),
                        model.entries.contains_key(key),
                        "capacity {} step {}: residency of {:?} diverges", capacity, step, key
                    );
                }
            }
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(96))]

    /// A plan served from the cache equals a freshly translated one, for
    /// arbitrary aligned partition requests — including repeat requests
    /// that hit the cache, from the space that cached the plan and from a
    /// twin of the same geometry.
    #[test]
    fn cached_plan_equals_fresh_plan(
        (shape, (sub, coord)) in shape_strategy(48).prop_flat_map(|s| {
            let p = partition_of(&s);
            (Just(s), p)
        }),
        seed in any::<u64>(),
    ) {
        let mut cached = stl_with_capacity(seed, 64);
        let mut fresh = stl_with_capacity(seed, 0);
        let id_c = cached.create_space(shape.clone(), ElementType::F32).unwrap();
        let twin = cached.create_space(shape.clone(), ElementType::F32).unwrap();
        let id_f = fresh.create_space(shape.clone(), ElementType::F32).unwrap();
        prop_assert_eq!(id_c, id_f);

        // First call populates the cache; the others are served from it.
        let direct = fresh.plan(id_f, &shape, &coord, &sub).unwrap();
        let first = cached.plan_cached(id_c, &shape, &coord, &sub).unwrap();
        let hit = cached.plan_cached(id_c, &shape, &coord, &sub).unwrap();
        let shared = cached.plan_cached(twin, &shape, &coord, &sub).unwrap();
        let uncached = fresh.plan_cached(id_f, &shape, &coord, &sub).unwrap();
        prop_assert_eq!(&first, &direct, "memoized plan diverges from fresh");
        prop_assert_eq!(&hit, &direct, "cache-hit plan diverges from fresh");
        prop_assert_eq!(&shared, &direct, "a twin space's plan diverges from fresh");
        prop_assert_eq!(&uncached, &direct, "cache-off plan diverges from fresh");
        prop_assert_eq!(cached.plan_cache().hits(), 2, "second and third lookup must hit");
        prop_assert_eq!(fresh.plan_cache().hits(), 0);
    }

    /// With the cache on vs off, an identical request trace produces
    /// identical bytes, identical [`AccessReport`]s, and identical
    /// [`WriteReport`]s — repeats included, so the on-side serves plans
    /// from the cache while the off-side recomputes every time.
    ///
    /// [`AccessReport`]: nds_core::AccessReport
    /// [`WriteReport`]: nds_core::WriteReport
    #[test]
    fn cache_on_and_off_produce_identical_reads(
        (shape, parts) in shape_strategy(48).prop_flat_map(|s| {
            let ps = prop::collection::vec(partition_of(&s), 1..=4);
            (Just(s), ps)
        }),
        seed in any::<u64>(),
    ) {
        let mut on = stl_with_capacity(seed, 128);
        let mut off = stl_with_capacity(seed, 0);
        let id_on = on.create_space(shape.clone(), ElementType::F32).unwrap();
        let id_off = off.create_space(shape.clone(), ElementType::F32).unwrap();

        // Position-dependent payload so assembly errors are visible.
        let volume = shape.volume() as usize;
        let data: Vec<u8> = (0..volume)
            .flat_map(|i| (i as f32).to_le_bytes())
            .collect();
        let full: Vec<u64> = shape.dims().to_vec();
        let zeros = vec![0u64; shape.ndims()];
        let w_on = on.write(id_on, &shape, &zeros, &full, &data).unwrap();
        let w_off = off.write(id_off, &shape, &zeros, &full, &data).unwrap();
        prop_assert_eq!(w_on, w_off, "write reports diverge");

        // Replay the trace twice so the second pass is all cache hits.
        let mut buf_on = Vec::new();
        let mut buf_off = Vec::new();
        for (sub, coord) in parts.iter().chain(parts.iter()) {
            let r_on = on.read_into(id_on, &shape, coord, sub, &mut buf_on).unwrap();
            let r_off = off.read_into(id_off, &shape, coord, sub, &mut buf_off).unwrap();
            prop_assert_eq!(&buf_on, &buf_off, "payload bytes diverge");
            prop_assert_eq!(&r_on, &r_off, "access reports diverge");

            // Both sides act on relocated plans, so agreeing is not enough:
            // the bytes are the partition's and — every block of the space
            // being stored — the report names exactly the fresh plan's covers.
            let mut expected = Vec::new();
            Region::from_request(&shape, coord, sub).unwrap().for_each_run(&shape, |_, start, len| {
                expected.extend_from_slice(&data[start as usize * 4..(start + len) as usize * 4]);
            }).unwrap();
            prop_assert_eq!(&buf_on, &expected, "not the partition that was asked for");
            let plan = off.plan(id_off, &shape, coord, sub).unwrap();
            let covers: Vec<&Vec<u64>> = plan.blocks.iter().map(|b| &b.coord).collect();
            let reported: Vec<&Vec<u64>> = r_on.blocks.iter().map(|b| &b.coord).collect();
            prop_assert_eq!(reported, covers, "report names other blocks than the plan");
        }
        prop_assert!(on.plan_cache().hits() >= parts.len() as u64);
        prop_assert_eq!(off.plan_cache().hits(), 0);
        prop_assert_eq!(off.plan_cache().len(), 0, "capacity 0 must store nothing");
    }
}

/// A backend fault during a cached-plan replay must not poison the cache:
/// the failing read surfaces as a typed error, and the *next* request with
/// the same geometry is served from the cache (another hit, no eviction)
/// with byte-exact data. Plans describe geometry, not device health, so a
/// media fault is no reason to forget one.
#[test]
fn backend_fault_during_replay_does_not_poison_the_cache() {
    let spec = DeviceSpec::new(4, 2, 512);
    let backend = FlakyBackend::new(spec, 1024);
    let mut stl = Stl::new(
        backend,
        StlConfig {
            plan_cache_capacity: 64,
            ..StlConfig::default()
        },
    );
    let shape = Shape::new([32, 32]);
    let id = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let data: Vec<u8> = (0..32 * 32)
        .flat_map(|i| (i as f32).to_le_bytes())
        .collect();
    stl.write(id, &shape, &[0, 0], &[32, 32], &data).unwrap();

    // Warm the cache, then replay once from it.
    let mut buf = Vec::new();
    stl.read_into(id, &shape, &[0, 0], &[16, 16], &mut buf)
        .unwrap();
    stl.read_into(id, &shape, &[0, 0], &[16, 16], &mut buf)
        .unwrap();
    let hits_before = stl.plan_cache().hits();
    let len_before = stl.plan_cache().len();
    assert!(hits_before >= 1, "second identical read must hit the cache");

    // Inject a transient media failure into the next replay.
    stl.backend_mut().fail_next_reads(1);
    let err = stl
        .read_into(id, &shape, &[0, 0], &[16, 16], &mut buf)
        .expect_err("injected read failure must surface");
    assert!(matches!(err, NdsError::MissingUnit(_)), "got {err}");

    // The fault must not have evicted or bypassed the plan: the retry is
    // another cache hit and the bytes are exact.
    let report = stl
        .read_into(id, &shape, &[0, 0], &[16, 16], &mut buf)
        .expect("device recovered; plan still valid");
    assert!(
        stl.plan_cache().hits() > hits_before,
        "post-fault read must still be served from the cache"
    );
    assert_eq!(stl.plan_cache().len(), len_before, "fault must not evict");
    let expected: Vec<u8> = (0..16)
        .flat_map(|r| (0..16).map(move |c| r * 32 + c))
        .flat_map(|i: u64| (i as f32).to_le_bytes())
        .collect();
    assert_eq!(buf, expected, "post-fault replay corrupted the payload");
    assert_eq!(report.bytes, 16 * 16 * 4);
}

/// A request is validated on every lookup, not only when it misses: an
/// out-of-bounds coordinate that reduces to a resident canonical key is
/// still a typed `OutOfBounds`, reads and writes nothing, and leaves the
/// cache — counters included — as it was.
#[test]
fn out_of_bounds_request_onto_a_resident_key_is_rejected() {
    // 4 channels × 512 B units: the smallest square power-of-two block that
    // holds 2 KiB of f32 is 32 × 32, so a 64 × 64 space is a 2 × 2 grid.
    let mut stl = Stl::new(
        MemBackend::new(DeviceSpec::new(4, 2, 512), 1024),
        StlConfig::default(),
    );
    let shape = Shape::new([64, 64]);
    let id = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    let block = stl.space(id).unwrap().block_shape().dims().to_vec();
    assert_eq!(block, [32, 32]);

    let tile = vec![7u8; 32 * 32 * 4];
    stl.write(id, &shape, &[1, 1], &[32, 32], &tile).unwrap();
    stl.read(id, &shape, &[0, 1], &[32, 32]).unwrap(); // same canonical key
    let class = stl.space(id).unwrap().geometry_class();
    assert!(stl
        .plan_cache()
        .is_cached(class, &shape, &[0, 0], &[32, 32]));
    let before = (
        stl.plan_cache().hits(),
        stl.plan_cache().misses(),
        stl.plan_cache().len(),
    );
    assert_eq!(before, (1, 1, 1));

    // One block past the edge in either dimension: canonical origin (0, 0).
    for coord in [[2u64, 0], [0, 2], [2, 2], [u64::MAX / 32 + 1, 0]] {
        let attempts = [
            stl.read(id, &shape, &coord, &[32, 32]).map(|_| ()),
            stl.write(id, &shape, &coord, &[32, 32], &tile).map(|_| ()),
            stl.plan_cached(id, &shape, &coord, &[32, 32]).map(|_| ()),
        ];
        for got in attempts {
            assert!(
                matches!(got, Err(NdsError::OutOfBounds { .. })),
                "at {coord:?}: {got:?}"
            );
        }
    }
    let after = (
        stl.plan_cache().hits(),
        stl.plan_cache().misses(),
        stl.plan_cache().len(),
    );
    assert_eq!(after, before, "a rejected request must not touch the cache");
    assert_eq!(stl.space(id).unwrap().tree().allocated_blocks(), 1);
}

/// Deleting a space invalidates nothing — its plans were never its own —
/// and a plan outlives the space that cached it: the next space of that
/// geometry starts on a warm cache.
#[test]
fn plans_outlive_the_space_that_cached_them() {
    let mut stl = stl_with_capacity(1, 8);
    let shape = Shape::new([32, 32]);
    let first = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    stl.read(first, &shape, &[1, 0], &[8, 8]).unwrap();
    stl.delete_space(first).unwrap();
    assert_eq!(stl.plan_cache().len(), 1);

    let second = stl.create_space(shape.clone(), ElementType::F32).unwrap();
    assert_ne!(first, second);
    stl.read(second, &shape, &[3, 2], &[8, 8]).unwrap();
    assert_eq!((stl.plan_cache().hits(), stl.plan_cache().misses()), (1, 1));

    // Another geometry — here only the element size differs — shares nothing.
    let wide = stl.create_space(shape.clone(), ElementType::F64).unwrap();
    stl.read(wide, &shape, &[1, 0], &[8, 8]).unwrap();
    assert_eq!((stl.plan_cache().hits(), stl.plan_cache().misses()), (1, 2));
}
