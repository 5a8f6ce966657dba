//! A bounded, exact-LRU cache of translation plans.
//!
//! Translation (equation (5), [`crate::translator`]) is a pure function of
//! *geometry* — the space shape, the building-block shape, the requested
//! view and region — and never looks at allocation state or at which space
//! is asked. It is also periodic in the building-block grid: a request a
//! whole number of blocks away has the same plan with shifted block
//! coordinates ([`crate::translator::canonicalize`]). [`PlanCache`]
//! therefore memoizes the plan of the *canonical* request, keyed by
//! `(geometry class, view shape, canonical origin, extent)`: every space of
//! one [`GeometryClass`] — sixteen tenants' equal datasets, the shards of a
//! cluster — and every block-aligned repeat of a tile inside one space
//! share an entry. [`SpaceId`](crate::SpaceId) is not in the key, so
//! deleting a space invalidates nothing and a plan can never go stale; LRU
//! retires what is no longer asked for.
//!
//! The cache affects **wall-clock time only**: a cached plan is
//! [`Arc`]-shared and, moved back by the request's block base, compares
//! equal to a fresh one, so every [`crate::AccessReport`] is bit-identical
//! with the cache on or off. Hit and miss counters are exposed for the
//! `nds-sim` stats sinks; modeled time never charges for (or discounts)
//! translation based on cache state.
//!
//! # Structure
//!
//! Entries live in a dense slab (`Vec`). Each is threaded on two intrusive
//! lists of slab indices:
//!
//! * the **recency list** (`prev`/`next`, `head` = most recently used,
//!   `tail` = least recently used): a hit unlinks the entry and relinks it
//!   at the head, a miss at capacity recycles the tail's slot in place;
//! * its **bucket chain** (`chain`) in a power-of-two bucket array indexed
//!   by a fixed (seedless) hash of the key. A lookup hashes the *borrowed*
//!   request — the caller's `&Shape` and `&[u64]` slices — and compares it
//!   against the chain's stored keys, so a hit allocates nothing, and a
//!   miss at capacity overwrites the victim's key buffer instead of
//!   allocating a new one. The index is only ever probed by key; nothing
//!   iterates it, so no output can depend on hash order.
//!
//! Every step is `O(1)` expected, whatever the capacity. That matters more
//! than the hit path suggests: the cluster scenario still misses two times
//! in three (its flat-view chunks share no position inside a block), and a
//! miss at capacity must pick a victim — the dominant cost of the whole
//! cache when that meant scanning every entry for the oldest stamp.
//!
//! # Exactly LRU
//!
//! The recency list reproduces, victim for victim, the policy "stamp every
//! entry with a global counter on insert and on hit; evict the smallest
//! stamp". Stamps are unique and only ever assigned as the current maximum,
//! so ordering entries by stamp *is* ordering them by most recent touch —
//! the list order. Moving a touched entry to the head is assigning it the
//! new maximum; the tail is the minimum. Hits, misses and the resident set
//! therefore evolve identically for any request stream;
//! `tests/plan_cache_props.rs` keeps the stamp-scan formulation as a
//! reference model and checks exactly that.

use std::collections::BTreeMap;
use std::sync::Arc;

use crate::block::BlockShape;
use crate::shape::Shape;
use crate::translator::Translation;

/// "No entry": the null link of the recency list and the bucket chains.
const NIL: u32 = u32::MAX;

/// Smallest bucket array; it doubles whenever entries outnumber half of it.
const MIN_BUCKETS: usize = 16;

/// Everything a space contributes to a translation — its shape and its
/// building-block shape (block extents, element and unit bytes) — interned
/// by [`PlanCache::class_of`] when the space is created. Spaces of one class
/// translate every request identically.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct GeometryClass(u64);

/// Everything a translation depends on, borrowed from the (canonical)
/// request: the space's geometry class, the view, the region.
#[derive(Clone, Copy)]
struct KeyRef<'a> {
    class: GeometryClass,
    view: &'a [u64],
    origin: &'a [u64],
    extent: &'a [u64],
}

impl KeyRef<'_> {
    /// A fixed multiply-rotate hash over every word of the key (and the
    /// part lengths, so differently split requests do not collide by
    /// construction), finished with an avalanche so the low bits index well.
    fn hash(&self) -> u64 {
        const K: u64 = 0x517c_c1b7_2722_0a95;
        let mix = |h: u64, w: u64| (h.rotate_left(5) ^ w).wrapping_mul(K);
        let mut h = mix(self.class.0, self.view.len() as u64);
        h = mix(h, self.origin.len() as u64);
        for part in [self.view, self.origin, self.extent] {
            h = part.iter().fold(h, |h, &w| mix(h, w));
        }
        h ^= h >> 32;
        h = h.wrapping_mul(K);
        h ^ (h >> 29)
    }
}

/// One cached plan with its owned key and list links.
#[derive(Debug)]
struct Entry {
    class: GeometryClass,
    /// `view dims ++ origin ++ extent`; the two lengths split it.
    words: Vec<u64>,
    view_len: usize,
    origin_len: usize,
    hash: u64,
    plan: Arc<Translation>,
    /// Recency neighbours: `prev` is more recently used, `next` less.
    prev: u32,
    next: u32,
    /// Next entry in the same bucket.
    chain: u32,
}

impl Entry {
    fn matches(&self, hash: u64, key: KeyRef<'_>) -> bool {
        let (view, rest) = self.words.split_at(self.view_len);
        let (origin, extent) = rest.split_at(self.origin_len);
        self.hash == hash
            && self.class == key.class
            && view == key.view
            && origin == key.origin
            && extent == key.extent
    }

    /// Overwrites the key in place, reusing the word buffer.
    fn set_key(&mut self, hash: u64, key: KeyRef<'_>) {
        self.class = key.class;
        self.words.clear();
        self.words.extend_from_slice(key.view);
        self.words.extend_from_slice(key.origin);
        self.words.extend_from_slice(key.extent);
        self.view_len = key.view.len();
        self.origin_len = key.origin.len();
        self.hash = hash;
    }
}

/// A bounded exact-LRU memo of [`Translation`]s (see module docs).
#[derive(Debug)]
pub struct PlanCache {
    capacity: usize,
    /// Every geometry a space was created with, by its class. Neither
    /// [`clear`](Self::clear) nor deleting a space shrinks it — a class has
    /// to mean the same geometry for as long as any plan or space carries it
    /// — so it grows by one entry (two dimension vectors and three words)
    /// per *distinct* geometry ever created, however many spaces share it or
    /// come and go. That is bounded by the datasets a run knows, not by its
    /// length; only a process that keeps inventing new shapes grows it, and
    /// dropping the cache's owner is what frees it.
    classes: BTreeMap<(Shape, BlockShape), GeometryClass>,
    /// Every cached entry, densely: `slab.len()` is the cache's length.
    slab: Vec<Entry>,
    /// Bucket heads of the keyed index; length is zero or a power of two.
    buckets: Vec<u32>,
    /// Most and least recently used entries.
    head: u32,
    tail: u32,
    hits: u64,
    misses: u64,
}

impl PlanCache {
    /// Creates a cache holding at most `capacity` plans. Capacity 0 disables
    /// caching entirely: every lookup misses and nothing is stored.
    pub fn new(capacity: usize) -> Self {
        PlanCache {
            // Slab indices are `u32` with `NIL` reserved.
            capacity: capacity.min(NIL as usize),
            classes: BTreeMap::new(),
            slab: Vec::new(),
            buckets: Vec::new(),
            head: NIL,
            tail: NIL,
            hits: 0,
            misses: 0,
        }
    }

    /// Whether the cache stores anything at all.
    pub fn is_enabled(&self) -> bool {
        self.capacity > 0
    }

    /// Maximum number of plans retained.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Plans currently cached.
    pub fn len(&self) -> usize {
        self.slab.len()
    }

    /// Whether the cache currently holds no plans.
    pub fn is_empty(&self) -> bool {
        self.slab.is_empty()
    }

    /// Lookups that returned a cached plan.
    pub fn hits(&self) -> u64 {
        self.hits
    }

    /// Lookups that had to translate afresh (including all lookups while
    /// disabled).
    pub fn misses(&self) -> u64 {
        self.misses
    }

    /// The class of spaces shaped `space` and tiled by `block`: the same
    /// class for the same geometry, a new one the first time it is seen.
    pub fn class_of(&mut self, space: &Shape, block: &BlockShape) -> GeometryClass {
        let next = GeometryClass(self.classes.len() as u64);
        *self
            .classes
            .entry((space.clone(), block.clone()))
            .or_insert(next)
    }

    /// Whether a plan for the region `(origin, extent)` of `view` over
    /// spaces of `class` is resident. A pure peek: recency and the counters
    /// are untouched.
    pub fn is_cached(
        &self,
        class: GeometryClass,
        view: &Shape,
        origin: &[u64],
        extent: &[u64],
    ) -> bool {
        let key = KeyRef {
            class,
            view: view.dims(),
            origin,
            extent,
        };
        self.find(key.hash(), key).is_some()
    }

    /// Memoized translation: returns the cached plan for the region
    /// `(origin, extent)` of `view` over spaces of `class`, or computes one
    /// via `translate` and caches it. `translate` runs at most once, and
    /// only on a miss. A hit performs no heap allocation.
    ///
    /// The caller validates the request and reduces it to its canonical
    /// origin first ([`crate::translator::canonicalize`]): the cache stores
    /// whatever plan `translate` returns for the key it is given.
    pub fn get_or_translate<E>(
        &mut self,
        class: GeometryClass,
        view: &Shape,
        origin: &[u64],
        extent: &[u64],
        translate: impl FnOnce() -> Result<Translation, E>,
    ) -> Result<Arc<Translation>, E> {
        if self.capacity == 0 {
            self.misses += 1;
            return Ok(Arc::new(translate()?));
        }
        let key = KeyRef {
            class,
            view: view.dims(),
            origin,
            extent,
        };
        let hash = key.hash();
        if let Some((slot, entry)) = self.find(hash, key) {
            let plan = Arc::clone(&entry.plan);
            self.hits += 1;
            self.unlink_recency(slot);
            self.push_front(slot);
            return Ok(plan);
        }
        self.misses += 1;
        let plan = Arc::new(translate()?);
        self.insert(hash, key, Arc::clone(&plan));
        Ok(plan)
    }

    /// Drops all cached plans (counters are preserved).
    pub fn clear(&mut self) {
        self.slab.clear();
        self.buckets.fill(NIL);
        self.head = NIL;
        self.tail = NIL;
    }

    // `head`, `tail`, the links and the bucket heads hold live slab indices
    // or `NIL`, which — the capacity stays below it — no slab ever reaches:
    // the end of a list and a slot outside the slab are the same `None`.
    fn entry(&self, slot: u32) -> Option<&Entry> {
        self.slab.get(slot as usize)
    }

    fn entry_mut(&mut self, slot: u32) -> Option<&mut Entry> {
        self.slab.get_mut(slot as usize)
    }

    /// The bucket `hash` falls in. The array's length is zero or a power of
    /// two; an empty array maps everything out of range, which reads as an
    /// empty chain.
    fn bucket_of(&self, hash: u64) -> usize {
        hash as usize & self.buckets.len().wrapping_sub(1)
    }

    fn bucket_head(&self, hash: u64) -> u32 {
        self.buckets
            .get(self.bucket_of(hash))
            .copied()
            .unwrap_or(NIL)
    }

    fn find(&self, hash: u64, key: KeyRef<'_>) -> Option<(u32, &Entry)> {
        let mut slot = self.bucket_head(hash);
        while let Some(entry) = self.entry(slot) {
            if entry.matches(hash, key) {
                return Some((slot, entry));
            }
            slot = entry.chain;
        }
        None
    }

    /// Caches `plan` under `key` as the most recently used entry, recycling
    /// the least recently used entry's slot (and key buffer) at capacity.
    fn insert(&mut self, hash: u64, key: KeyRef<'_>, plan: Arc<Translation>) {
        if self.slab.len() < self.capacity {
            let mut entry = Entry {
                class: key.class,
                words: Vec::new(),
                view_len: 0,
                origin_len: 0,
                hash,
                plan,
                prev: NIL,
                next: NIL,
                chain: NIL,
            };
            entry.set_key(hash, key);
            self.push_entry(entry);
            return;
        }
        let slot = self.tail;
        self.unlink_recency(slot);
        self.unlink_chain(slot);
        if let Some(entry) = self.entry_mut(slot) {
            entry.set_key(hash, key);
            entry.plan = plan;
        }
        self.link_chain(slot);
        self.push_front(slot);
    }

    /// Appends a complete entry to the slab and links it as most recent.
    fn push_entry(&mut self, entry: Entry) {
        let slot = self.slab.len() as u32;
        self.slab.push(entry);
        if self.slab.len() * 2 > self.buckets.len() {
            self.grow_buckets();
        } else {
            self.link_chain(slot);
        }
        self.push_front(slot);
    }

    /// Doubles the bucket array and re-chains every entry from its stored
    /// hash.
    fn grow_buckets(&mut self) {
        let size = (self.buckets.len() * 2).max(MIN_BUCKETS);
        self.buckets.clear();
        self.buckets.resize(size, NIL);
        for slot in 0..self.slab.len() as u32 {
            self.link_chain(slot);
        }
    }

    /// Puts `slot` at the head of its hash's bucket chain.
    fn link_chain(&mut self, slot: u32) {
        let Some(hash) = self.entry(slot).map(|entry| entry.hash) else {
            return;
        };
        let bucket = self.bucket_of(hash);
        if let (Some(entry), Some(head)) = (
            self.slab.get_mut(slot as usize),
            self.buckets.get_mut(bucket),
        ) {
            entry.chain = std::mem::replace(head, slot);
        }
    }

    /// Takes `slot` out of its hash's bucket chain.
    fn unlink_chain(&mut self, slot: u32) {
        let Some((hash, after)) = self.entry(slot).map(|entry| (entry.hash, entry.chain)) else {
            return;
        };
        if self.bucket_head(hash) == slot {
            let bucket = self.bucket_of(hash);
            if let Some(head) = self.buckets.get_mut(bucket) {
                *head = after;
            }
            return;
        }
        let mut at = self.bucket_head(hash);
        while let Some(entry) = self.entry_mut(at) {
            if entry.chain == slot {
                entry.chain = after;
                return;
            }
            at = entry.chain;
        }
    }

    fn push_front(&mut self, slot: u32) {
        let old_head = self.head;
        let Some(entry) = self.entry_mut(slot) else {
            return;
        };
        entry.prev = NIL;
        entry.next = old_head;
        match self.entry_mut(old_head) {
            Some(head) => head.prev = slot,
            None => self.tail = slot,
        }
        self.head = slot;
    }

    fn unlink_recency(&mut self, slot: u32) {
        let Some((prev, next)) = self.entry(slot).map(|entry| (entry.prev, entry.next)) else {
            return;
        };
        match self.entry_mut(prev) {
            Some(before) => before.next = next,
            None => self.head = next,
        }
        match self.entry_mut(next) {
            Some(after) => after.prev = prev,
            None => self.tail = prev,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn plan(tag: u64) -> Translation {
        // Distinguishable dummy plans; contents don't matter to the cache.
        Translation {
            blocks: Vec::new(),
            total_bytes: tag,
            spans: Vec::new(),
            unit_bytes: 1,
        }
    }

    fn shape(dims: &[u64]) -> Shape {
        Shape::new(dims.to_vec())
    }

    const C1: GeometryClass = GeometryClass(1);

    #[test]
    fn hit_returns_same_plan_without_recomputing() {
        let mut cache = PlanCache::new(4);
        let view = shape(&[8, 8]);
        let first: Arc<Translation> = cache
            .get_or_translate::<()>(C1, &view, &[0, 0], &[4, 4], || Ok(plan(1)))
            .unwrap();
        let second = cache
            .get_or_translate::<()>(C1, &view, &[0, 0], &[4, 4], || {
                panic!("must not retranslate on a hit")
            })
            .unwrap();
        assert!(Arc::ptr_eq(&first, &second));
        assert_eq!((cache.hits(), cache.misses()), (1, 1));
    }

    #[test]
    fn distinct_keys_miss() {
        let mut cache = PlanCache::new(4);
        let view = shape(&[8, 8]);
        for (coord, tag) in [([0u64, 0], 1u64), ([1, 0], 2), ([0, 1], 3)] {
            let got = cache
                .get_or_translate::<()>(C1, &view, &coord, &[4, 4], || Ok(plan(tag)))
                .unwrap();
            assert_eq!(got.total_bytes, tag);
        }
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        assert_eq!(cache.len(), 3);
    }

    #[test]
    fn lru_evicts_the_coldest_entry() {
        let mut cache = PlanCache::new(2);
        let view = shape(&[8]);
        cache
            .get_or_translate::<()>(C1, &view, &[0], &[4], || Ok(plan(1)))
            .unwrap();
        cache
            .get_or_translate::<()>(C1, &view, &[1], &[4], || Ok(plan(2)))
            .unwrap();
        // Touch [0] so [1] becomes the LRU victim.
        cache
            .get_or_translate::<()>(C1, &view, &[0], &[4], || Ok(plan(1)))
            .unwrap();
        cache
            .get_or_translate::<()>(C1, &view, &[2], &[4], || Ok(plan(3)))
            .unwrap();
        assert_eq!(cache.len(), 2);
        // [0] survived; [1] was evicted and retranslates.
        cache
            .get_or_translate::<()>(C1, &view, &[0], &[4], || {
                panic!("[0] should still be cached")
            })
            .unwrap();
        let refreshed = cache
            .get_or_translate::<()>(C1, &view, &[1], &[4], || Ok(plan(9)))
            .unwrap();
        assert_eq!(refreshed.total_bytes, 9);
    }

    #[test]
    fn zero_capacity_disables_storage_but_counts_misses() {
        let mut cache = PlanCache::new(0);
        let view = shape(&[8]);
        for _ in 0..3 {
            cache
                .get_or_translate::<()>(C1, &view, &[0], &[4], || Ok(plan(1)))
                .unwrap();
        }
        assert!(!cache.is_enabled());
        assert_eq!((cache.hits(), cache.misses()), (0, 3));
        assert_eq!(cache.len(), 0);
    }

    #[test]
    fn errors_pass_through_and_cache_nothing() {
        let mut cache = PlanCache::new(4);
        let view = shape(&[8]);
        let err = cache
            .get_or_translate::<&str>(C1, &view, &[0], &[4], || Err("boom"))
            .unwrap_err();
        assert_eq!(err, "boom");
        assert_eq!(cache.len(), 0);
        assert_eq!((cache.hits(), cache.misses()), (0, 1));
    }

    #[test]
    fn equal_geometries_share_a_class_and_its_plans() {
        let mut cache = PlanCache::new(8);
        let block = |side| BlockShape::custom([side, side], 4, 512);
        let first = cache.class_of(&shape(&[64, 64]), &block(16));
        let twin = cache.class_of(&shape(&[64, 64]), &block(16));
        assert_eq!(first, twin);
        assert_ne!(first, cache.class_of(&shape(&[64, 32]), &block(16)));
        assert_ne!(first, cache.class_of(&shape(&[64, 64]), &block(8)));
        let view = shape(&[64, 64]);
        cache
            .get_or_translate::<()>(first, &view, &[0, 0], &[4, 4], || Ok(plan(1)))
            .unwrap();
        cache
            .get_or_translate::<()>(twin, &view, &[0, 0], &[4, 4], || {
                panic!("the twin's plan is the first's")
            })
            .unwrap();
        // Dropping plans forgets no class: live spaces still carry them.
        cache.clear();
        assert_eq!(cache.class_of(&shape(&[64, 64]), &block(16)), first);
        // One table entry per distinct geometry, however often it is asked.
        assert_eq!(cache.classes.len(), 3);
    }

    #[test]
    fn differently_split_requests_do_not_alias() {
        // The same words split differently between origin and extent are
        // different (here: one valid, one malformed) requests.
        let mut cache = PlanCache::new(4);
        let view = shape(&[4, 4]);
        cache
            .get_or_translate::<()>(C1, &view, &[1, 2], &[1, 1], || Ok(plan(1)))
            .unwrap();
        assert!(cache.is_cached(C1, &view, &[1, 2], &[1, 1]));
        assert!(!cache.is_cached(C1, &view, &[1], &[2, 1, 1]));
        let err = cache
            .get_or_translate::<&str>(C1, &view, &[1], &[2, 1, 1], || Err("arity"))
            .unwrap_err();
        assert_eq!(err, "arity");
    }

    #[test]
    fn eviction_recycles_slots_at_any_capacity() {
        // Thrash far past capacity: length stays pinned, the most recent
        // `capacity` keys are resident, everything older is gone.
        let mut cache = PlanCache::new(7);
        let view = shape(&[1024]);
        for i in 0..100u64 {
            cache
                .get_or_translate::<()>(C1, &view, &[i], &[1], || Ok(plan(i)))
                .unwrap();
        }
        assert_eq!(cache.len(), 7);
        for i in 0..100u64 {
            assert_eq!(cache.is_cached(C1, &view, &[i], &[1]), i >= 93);
        }
    }
}
